//! `ETag` plumbing for the query endpoint.
//!
//! The hub's `result_version` (see
//! `xdmod_core::FederationHub::result_version`) folds every satellite's
//! replication watermark plus the warehouse rebuild generation into one
//! `u64` — the exact vector its federated-query cache is keyed on. The
//! gateway renders that stamp as a strong `ETag`, so a dashboard's
//! `If-None-Match` revalidation costs a watermark read, not a federated
//! union: unchanged data is a 304 with an empty body.

/// The `i`-th of the sixteen lower-case hex digits of `version`.
fn hex_digit(version: u64, i: usize) -> Option<char> {
    char::from_digit((version >> (60 - 4 * i) & 0xf) as u32, 16)
}

/// Render a version stamp as a strong entity tag: `"xd-<hex>"`.
pub fn format_etag(version: u64) -> String {
    let mut tag = String::with_capacity(21);
    tag.push_str("\"xd-");
    tag.extend((0..16).filter_map(|i| hex_digit(version, i)));
    tag.push('"');
    tag
}

/// Does an `If-None-Match` header value match this version? Handles the
/// wildcard `*` and comma-separated candidate lists; `W/` weak tags never
/// match (the gateway only mints strong ones). Candidates are compared
/// digit by digit against the version, without rendering the tag.
pub fn if_none_match(header: &str, version: u64) -> bool {
    let is_current = |candidate: &str| {
        candidate
            .strip_prefix("\"xd-")
            .and_then(|rest| rest.strip_suffix('"'))
            .is_some_and(|hex| {
                hex.len() == 16
                    && hex
                        .chars()
                        .enumerate()
                        .all(|(i, digit)| Some(digit) == hex_digit(version, i))
            })
    };
    header
        .split(',')
        .map(str::trim)
        .any(|candidate| candidate == "*" || is_current(candidate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_tags_round_trip() {
        let tag = format_etag(0xdead_beef);
        assert_eq!(tag, "\"xd-00000000deadbeef\"");
        assert!(if_none_match(&tag, 0xdead_beef));
        assert!(!if_none_match(&tag, 0xdead_bee0));
    }

    #[test]
    fn lists_wildcards_and_weak_tags() {
        let v = 7;
        let tag = format_etag(v);
        assert!(if_none_match(&format!("\"other\", {tag}"), v));
        assert!(if_none_match("*", v));
        assert!(!if_none_match(&format!("W/{tag}"), v));
        assert!(!if_none_match("", v));
    }
}
