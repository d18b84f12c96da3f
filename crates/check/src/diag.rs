//! The diagnostics vocabulary: stable codes, severities, structured
//! spans, and collected [`Diagnostics`] with text and JSON rendering.
//!
//! Codes are stable across releases (`XC0001..`): tooling, CI greps, and
//! `xc-allow` style suppressions may key on them. New checks append new
//! codes; retired checks leave their number unused forever.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; never gates anything.
    Info,
    /// Suspicious but the federation will run; gates only under
    /// `--deny-warnings`.
    Warning,
    /// The federation is misconfigured; `preflight()` refuses `go_live`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. One code per distinct misconfiguration class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Two satellites' rename rules collide on one hub schema.
    HubSchemaCollision,
    /// A satellite's link replicates into its own source schema.
    SelfReplication,
    /// Two replication links share an id.
    DuplicateLinkId,
    /// The replication filter excludes a table the satellite's declared
    /// realms (and therefore a registered aggregate) require.
    FilteredRequiredTable,
    /// No satellite replicates the fact table a hub group-by query reads.
    GroupByFactTableUnreplicated,
    /// Two satellites replicate the same table name with incompatible
    /// column layouts (the hub's union query will fail).
    SchemaDrift,
    /// A group-by or aggregation dimension names a column absent from the
    /// fact table it reads.
    DanglingDimension,
    /// A resource appears in job records without an SU conversion factor.
    MissingSuFactor,
    /// An excluded resource matches no resource in any job record.
    UnknownExcludedResource,
    /// A tight (live) link explicitly configures zero retries: one
    /// transient source hiccup per interval and the link never
    /// fast-recovers, inflating lag for no benefit.
    ZeroRetryTightLink,
    /// The aggregation pool configures more workers than the fact tables
    /// have day-bucket shards: the surplus workers can never claim a
    /// shard and sit idle while still being spawned every rebuild.
    OversizedAggregationPool,
    /// The gateway's HTTP worker pool is larger than the hub's
    /// aggregation pool: under load, the surplus request workers all
    /// queue behind the same aggregation locks, holding sockets open
    /// without adding any throughput.
    GatewayPoolExceedsAggregation,
    /// An alert rule is unusable: it names a family no producer emits,
    /// auto-resolves inside its own flap-damping window, or configures a
    /// zero-capacity notification bucket that suppresses every dispatch.
    AlertRuleInvalid,
    /// The durable-storage stanza is unusable or self-defeating: an
    /// unknown backend name, a disk backend with no directory, a zero or
    /// absurd snapshot interval, or a directory configured for the
    /// memory backend (which persists nothing).
    StorageConfigInvalid,
    /// The `storage.paging` stanza is unusable or self-defeating: paging
    /// over the memory backend (no durable log to repair lost spill files
    /// from), a working-set budget too small to hold even one shard, or a
    /// budget at or above the unbounded sentinel (paging overhead with no
    /// memory bound in return).
    PagingConfigInvalid,
}

impl Code {
    /// Every code, in numeric order.
    pub const ALL: [Code; 15] = [
        Code::HubSchemaCollision,
        Code::SelfReplication,
        Code::DuplicateLinkId,
        Code::FilteredRequiredTable,
        Code::GroupByFactTableUnreplicated,
        Code::SchemaDrift,
        Code::DanglingDimension,
        Code::MissingSuFactor,
        Code::UnknownExcludedResource,
        Code::ZeroRetryTightLink,
        Code::OversizedAggregationPool,
        Code::GatewayPoolExceedsAggregation,
        Code::AlertRuleInvalid,
        Code::StorageConfigInvalid,
        Code::PagingConfigInvalid,
    ];

    /// The stable `XCnnnn` identifier.
    pub fn ident(self) -> &'static str {
        match self {
            Code::HubSchemaCollision => "XC0001",
            Code::SelfReplication => "XC0002",
            Code::DuplicateLinkId => "XC0003",
            Code::FilteredRequiredTable => "XC0004",
            Code::GroupByFactTableUnreplicated => "XC0005",
            Code::SchemaDrift => "XC0006",
            Code::DanglingDimension => "XC0007",
            Code::MissingSuFactor => "XC0008",
            Code::UnknownExcludedResource => "XC0009",
            Code::ZeroRetryTightLink => "XC0010",
            Code::OversizedAggregationPool => "XC0011",
            Code::GatewayPoolExceedsAggregation => "XC0012",
            Code::AlertRuleInvalid => "XC0013",
            Code::StorageConfigInvalid => "XC0014",
            Code::PagingConfigInvalid => "XC0015",
        }
    }

    /// Default severity of findings with this code.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::HubSchemaCollision
            | Code::SelfReplication
            | Code::DuplicateLinkId
            | Code::FilteredRequiredTable
            | Code::GroupByFactTableUnreplicated
            | Code::SchemaDrift
            | Code::DanglingDimension
            // An unusable alert rule means the operator believes a fault
            // family is monitored when it is not — worse than no rule.
            | Code::AlertRuleInvalid
            // A broken storage stanza means the operator believes data is
            // durable when the hub silently stayed on the memory backend.
            | Code::StorageConfigInvalid
            // Paging findings default to Error; the analyzer downgrades
            // the unbounded-budget case to Warning at emission time.
            | Code::PagingConfigInvalid => Severity::Error,
            Code::MissingSuFactor
            | Code::UnknownExcludedResource
            | Code::ZeroRetryTightLink
            | Code::OversizedAggregationPool
            | Code::GatewayPoolExceedsAggregation => Severity::Warning,
        }
    }

    /// One-line description of the misconfiguration class.
    pub fn summary(self) -> &'static str {
        match self {
            Code::HubSchemaCollision => "hub schema name collision between satellites",
            Code::SelfReplication => "satellite replicates into its own schema",
            Code::DuplicateLinkId => "duplicate replication link id",
            Code::FilteredRequiredTable => "replication filter excludes a required table",
            Code::GroupByFactTableUnreplicated => {
                "hub group-by reads a table no satellite replicates"
            }
            Code::SchemaDrift => "cross-satellite schema drift",
            Code::DanglingDimension => "dangling dimension reference",
            Code::MissingSuFactor => "resource has no SU conversion factor",
            Code::UnknownExcludedResource => "excluded resource matches no job record",
            Code::ZeroRetryTightLink => "tight link configured with zero retries",
            Code::OversizedAggregationPool => "aggregation pool has more workers than shards",
            Code::GatewayPoolExceedsAggregation => {
                "gateway worker pool exceeds the hub aggregation pool"
            }
            Code::AlertRuleInvalid => "invalid alert rule configuration",
            Code::StorageConfigInvalid => "invalid durable-storage configuration",
            Code::PagingConfigInvalid => "invalid storage.paging configuration",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ident())
    }
}

/// Where a finding points: the offending satellite / schema / table /
/// column, each optional because different checks bottom out at
/// different granularities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Satellite (member) name.
    pub satellite: Option<String>,
    /// Warehouse schema name (satellite-side or hub-side, per message).
    pub schema: Option<String>,
    /// Table name.
    pub table: Option<String>,
    /// Column name.
    pub column: Option<String>,
}

impl Span {
    /// Empty span (federation-wide finding).
    pub fn federation() -> Self {
        Span::default()
    }

    /// Span naming a satellite.
    pub fn satellite(name: &str) -> Self {
        Span {
            satellite: Some(name.to_owned()),
            ..Span::default()
        }
    }

    /// Attach a schema name.
    pub fn in_schema(mut self, schema: &str) -> Self {
        self.schema = Some(schema.to_owned());
        self
    }

    /// Attach a table name.
    pub fn at_table(mut self, table: &str) -> Self {
        self.table = Some(table.to_owned());
        self
    }

    /// Attach a column name.
    pub fn at_column(mut self, column: &str) -> Self {
        self.column = Some(column.to_owned());
        self
    }

    fn parts(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(s) = &self.satellite {
            out.push(format!("satellite:{s}"));
        }
        if let Some(s) = &self.schema {
            out.push(format!("schema:{s}"));
        }
        if let Some(t) = &self.table {
            out.push(format!("table:{t}"));
        }
        if let Some(c) = &self.column {
            out.push(format!("column:{c}"));
        }
        out
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts = self.parts();
        if parts.is_empty() {
            write!(f, "federation")
        } else {
            write!(f, "{}", parts.join(" "))
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (usually [`Code::default_severity`]).
    pub severity: Severity,
    /// Where it points.
    pub span: Span,
    /// Human-readable explanation with concrete names.
    pub message: String,
    /// Optional remediation hint.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A finding at the code's default severity.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a remediation hint.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Render as one `rustc`-style text block.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{}[{}]: {}\n  --> {}\n",
            self.severity, self.code, self.message, self.span
        );
        if let Some(help) = &self.help {
            out.push_str(&format!("  = help: {help}\n"));
        }
        out
    }

    /// Render as a JSON object.
    pub fn render_json(&self) -> String {
        use crate::json::escape;
        let mut fields = vec![
            format!("\"code\":\"{}\"", self.code.ident()),
            format!("\"severity\":\"{}\"", self.severity),
            format!("\"message\":{}", escape(&self.message)),
        ];
        let mut span = Vec::new();
        for (key, value) in [
            ("satellite", &self.span.satellite),
            ("schema", &self.span.schema),
            ("table", &self.span.table),
            ("column", &self.span.column),
        ] {
            if let Some(v) = value {
                span.push(format!("\"{key}\":{}", escape(v)));
            }
        }
        fields.push(format!("\"span\":{{{}}}", span.join(",")));
        if let Some(help) = &self.help {
            fields.push(format!("\"help\":{}", escape(help)));
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// The collected output of an analysis run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Empty collection.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Record a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.items.push(diagnostic);
    }

    /// All findings, in emission order (analyzer passes run in code
    /// order, so this is also roughly code order).
    pub fn items(&self) -> &[Diagnostic] {
        &self.items
    }

    /// Findings carrying a specific code.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.items.iter().filter(|d| d.code == code).collect()
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == severity).count()
    }

    /// Whether any `Error`-severity finding exists (the `go_live` gate).
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// True when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// One-line summary, e.g. `2 error(s), 1 warning(s)`.
    pub fn summary(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} info",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        )
    }

    /// Render every finding as text, most severe first, ending with the
    /// summary line.
    pub fn render_text(&self) -> String {
        let mut ordered: Vec<&Diagnostic> = self.items.iter().collect();
        ordered.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(&b.code)));
        let mut out = String::new();
        for d in ordered {
            out.push_str(&d.render_text());
        }
        out.push_str(&format!("preflight: {}\n", self.summary()));
        out
    }

    /// Render as a JSON document: `{"diagnostics":[..],"errors":n,..}`.
    pub fn render_json(&self) -> String {
        let body: Vec<String> = self.items.iter().map(Diagnostic::render_json).collect();
        format!(
            "{{\"diagnostics\":[{}],\"errors\":{},\"warnings\":{}}}",
            body.join(","),
            self.count(Severity::Error),
            self.count(Severity::Warning),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut idents: Vec<&str> = Code::ALL.iter().map(|c| c.ident()).collect();
        idents.sort_unstable();
        idents.dedup();
        assert_eq!(idents.len(), Code::ALL.len());
        assert_eq!(Code::HubSchemaCollision.ident(), "XC0001");
        assert_eq!(Code::UnknownExcludedResource.ident(), "XC0009");
        assert_eq!(Code::ZeroRetryTightLink.ident(), "XC0010");
        assert_eq!(
            Code::ZeroRetryTightLink.default_severity(),
            Severity::Warning
        );
        assert_eq!(Code::OversizedAggregationPool.ident(), "XC0011");
        assert_eq!(
            Code::OversizedAggregationPool.default_severity(),
            Severity::Warning
        );
        assert_eq!(Code::GatewayPoolExceedsAggregation.ident(), "XC0012");
        assert_eq!(
            Code::GatewayPoolExceedsAggregation.default_severity(),
            Severity::Warning
        );
        assert_eq!(Code::AlertRuleInvalid.ident(), "XC0013");
        assert_eq!(Code::AlertRuleInvalid.default_severity(), Severity::Error);
        assert_eq!(Code::StorageConfigInvalid.ident(), "XC0014");
        assert_eq!(
            Code::StorageConfigInvalid.default_severity(),
            Severity::Error
        );
        assert_eq!(Code::PagingConfigInvalid.ident(), "XC0015");
        assert_eq!(
            Code::PagingConfigInvalid.default_severity(),
            Severity::Error
        );
    }

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn span_renders_named_parts() {
        let span = Span::satellite("x").in_schema("inst_x").at_table("jobfact");
        assert_eq!(span.to_string(), "satellite:x schema:inst_x table:jobfact");
        assert_eq!(Span::federation().to_string(), "federation");
    }

    #[test]
    fn text_rendering_includes_code_and_help() {
        let d = Diagnostic::new(
            Code::HubSchemaCollision,
            Span::satellite("y"),
            "collides with x",
        )
        .with_help("rename one satellite");
        let text = d.render_text();
        assert!(text.contains("error[XC0001]"));
        assert!(text.contains("satellite:y"));
        assert!(text.contains("help: rename one satellite"));
    }

    #[test]
    fn json_rendering_is_parseable() {
        let mut diags = Diagnostics::new();
        diags.push(Diagnostic::new(
            Code::MissingSuFactor,
            Span::satellite("x").at_table("jobfact"),
            "resource \"rush\" has no factor",
        ));
        let json = diags.render_json();
        let value = crate::json::parse(&json).expect("valid json");
        let list: Vec<_> = value
            .get("diagnostics")
            .and_then(|v| v.as_array())
            .unwrap()
            .collect();
        assert_eq!(list.len(), 1);
        assert_eq!(
            list[0].get("code").and_then(|v| v.as_str()),
            Some("XC0001").filter(|_| false).or(Some("XC0008"))
        );
        assert_eq!(value.get("warnings").and_then(|v| v.as_f64()), Some(1.0));
    }

    #[test]
    fn gate_logic_counts_errors() {
        let mut diags = Diagnostics::new();
        assert!(!diags.has_errors());
        diags.push(Diagnostic::new(
            Code::MissingSuFactor,
            Span::federation(),
            "warn only",
        ));
        assert!(!diags.has_errors());
        diags.push(Diagnostic::new(
            Code::SchemaDrift,
            Span::federation(),
            "boom",
        ));
        assert!(diags.has_errors());
        assert!(diags.render_text().contains("1 error(s), 1 warning(s)"));
    }
}
