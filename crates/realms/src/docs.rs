//! Data-dictionary generation.
//!
//! Open XDMoD ships documentation of every realm's metrics and
//! dimensions; this module generates that dictionary from the live
//! catalogs, so docs cannot drift from code. Output is Markdown.

use crate::levels::AggregationLevelsConfig;
use crate::{all_realms, Realm};

/// Render one realm's section.
fn realm_section(realm: &Realm, levels: &AggregationLevelsConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## {} (`{}`)\n\n",
        realm.kind.display_name(),
        realm.kind.ident()
    ));
    out.push_str(&format!(
        "Fact table: `{}` ({} columns). Federated by default: {}.\n\n",
        realm.fact_schema.name,
        realm.fact_schema.arity(),
        if realm.kind.federated_by_default() {
            "yes"
        } else {
            "no (storage-intensive; summaries only)"
        }
    ));
    if !realm.aux_schemas.is_empty() {
        let names: Vec<&str> = realm.aux_schemas.iter().map(|s| s.name.as_str()).collect();
        out.push_str(&format!("Auxiliary tables: `{}`.\n\n", names.join("`, `")));
    }
    out.push_str("### Metrics\n\n| id | label | unit |\n|---|---|---|\n");
    for m in &realm.metrics {
        out.push_str(&format!("| `{}` | {} | {} |\n", m.id, m.label, m.unit));
    }
    out.push_str("\n### Dimensions\n\n| id | label | kind |\n|---|---|---|\n");
    for d in &realm.dimensions {
        let kind = if d.numeric {
            match levels.get(&d.id) {
                Some(l) => format!("numeric, {} configured levels", l.len()),
                None => "numeric, no levels configured".to_owned(),
            }
        } else {
            "categorical".to_owned()
        };
        out.push_str(&format!("| `{}` | {} | {} |\n", d.id, d.label, kind));
    }
    out.push('\n');
    out
}

/// Generate the full Markdown data dictionary for an instance's
/// configuration.
pub fn data_dictionary(levels: &AggregationLevelsConfig) -> String {
    let mut out = String::from(
        "# XDMoD data dictionary\n\nGenerated from the realm catalogs; \
         metrics and dimensions below are exactly what the usage explorer \
         accepts.\n\n",
    );
    for realm in all_realms(levels) {
        out.push_str(&realm_section(&realm, levels));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::{instance_a_walltime, DIM_WALL_TIME};

    #[test]
    fn dictionary_covers_every_realm_metric_and_dimension() {
        let levels = AggregationLevelsConfig::new();
        let doc = data_dictionary(&levels);
        for realm in all_realms(&levels) {
            assert!(doc.contains(realm.kind.display_name()));
            for m in &realm.metrics {
                assert!(
                    doc.contains(&format!("`{}`", m.id)),
                    "missing metric {}",
                    m.id
                );
            }
            for d in &realm.dimensions {
                assert!(doc.contains(&d.label), "missing dimension {}", d.id);
            }
        }
    }

    #[test]
    fn configured_levels_are_reflected() {
        let mut levels = AggregationLevelsConfig::new();
        levels.set(DIM_WALL_TIME, instance_a_walltime());
        let doc = data_dictionary(&levels);
        assert!(doc.contains("numeric, 3 configured levels"));
        assert!(doc.contains("numeric, no levels configured"));
    }

    #[test]
    fn supremm_marked_non_federated() {
        let doc = data_dictionary(&AggregationLevelsConfig::new());
        assert!(doc.contains("no (storage-intensive; summaries only)"));
    }
}
