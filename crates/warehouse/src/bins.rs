//! Generic numeric binning.
//!
//! XDMoD "pre-bins raw dimension data" into configurable **aggregation
//! levels** (§II-C3, Table I): job wall time, job size, CPU user value,
//! peak memory, VM memory size, and so on are all grouped through bins
//! like `1-60 seconds` or `4-8 GB`. This module provides the neutral bin
//! machinery; `xdmod-realms` layers the JSON-configured aggregation-level
//! catalogs on top of it.

/// A half-open bin `[lo, hi)` with a display label.
#[derive(Debug, Clone, PartialEq)]
pub struct Bin {
    /// Human-readable label, e.g. `"1-5 hours"`.
    pub label: String,
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge.
    pub hi: f64,
}

impl Bin {
    /// Construct a bin; panics if `lo >= hi` (programmer/config error is
    /// surfaced by [`Bins::new`] instead when loading configs).
    pub fn new(label: &str, lo: f64, hi: f64) -> Self {
        Bin {
            label: label.to_owned(),
            lo,
            hi,
        }
    }

    /// Whether `v` falls inside `[lo, hi)`.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v < self.hi
    }
}

/// Label assigned to values that fall outside every configured bin.
pub const OTHER_BIN_LABEL: &str = "other";

/// An ordered, non-overlapping set of bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Bins {
    bins: Vec<Bin>,
}

impl Bins {
    /// Build a bin set. Bins are sorted by lower edge; returns an error
    /// string if any bin is empty (`lo >= hi`) or any two bins overlap.
    pub fn new(mut bins: Vec<Bin>) -> Result<Self, String> {
        bins.sort_by(|a, b| a.lo.total_cmp(&b.lo));
        for b in &bins {
            if b.lo >= b.hi {
                return Err(format!("bin '{}' is empty: [{}, {})", b.label, b.lo, b.hi));
            }
        }
        for pair in bins.windows(2) {
            if pair[1].lo < pair[0].hi {
                return Err(format!(
                    "bins '{}' and '{}' overlap",
                    pair[0].label, pair[1].label
                ));
            }
        }
        Ok(Bins { bins })
    }

    /// The bins in ascending order.
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Number of bins (excluding the implicit `other`).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if no bins are configured.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Index of the bin containing `v`, if any (binary search).
    pub fn index_of(&self, v: f64) -> Option<usize> {
        if v.is_nan() {
            return None;
        }
        let idx = self.bins.partition_point(|b| b.lo <= v);
        if idx == 0 {
            return None;
        }
        let candidate = idx - 1;
        self.bins[candidate].contains(v).then_some(candidate)
    }

    /// Label of the bin containing `v`, or [`OTHER_BIN_LABEL`].
    pub fn label_of(&self, v: f64) -> &str {
        match self.index_of(v) {
            Some(i) => &self.bins[i].label,
            None => OTHER_BIN_LABEL,
        }
    }

    /// All labels in bin order, followed by `other`.
    pub fn labels(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.bins.iter().map(|b| b.label.as_str()).collect();
        out.push(OTHER_BIN_LABEL);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Instance-A wall-time levels from Table I, in hours.
    fn instance_a_bins() -> Bins {
        Bins::new(vec![
            Bin::new("1-60 seconds", 1.0 / 3600.0, 60.0 / 3600.0),
            Bin::new("1-60 minutes", 60.0 / 3600.0, 1.0),
            Bin::new("1-5 hours", 1.0, 5.0),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_inside_and_outside() {
        let bins = instance_a_bins();
        assert_eq!(bins.label_of(30.0 / 3600.0), "1-60 seconds");
        assert_eq!(bins.label_of(0.5), "1-60 minutes");
        assert_eq!(bins.label_of(3.0), "1-5 hours");
        assert_eq!(bins.label_of(10.0), OTHER_BIN_LABEL); // beyond the 5h limit
        assert_eq!(bins.label_of(0.0), OTHER_BIN_LABEL); // below 1 second
    }

    #[test]
    fn edges_are_half_open() {
        let bins = Bins::new(vec![Bin::new("a", 0.0, 1.0), Bin::new("b", 1.0, 2.0)]).unwrap();
        assert_eq!(bins.label_of(1.0), "b");
        assert_eq!(bins.label_of(2.0), OTHER_BIN_LABEL);
        assert_eq!(bins.label_of(0.0), "a");
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let bins = Bins::new(vec![Bin::new("hi", 5.0, 10.0), Bin::new("lo", 0.0, 5.0)]).unwrap();
        assert_eq!(bins.bins()[0].label, "lo");
    }

    #[test]
    fn overlap_rejected() {
        let err = Bins::new(vec![Bin::new("a", 0.0, 2.0), Bin::new("b", 1.0, 3.0)]).unwrap_err();
        assert!(err.contains("overlap"));
    }

    #[test]
    fn empty_bin_rejected() {
        assert!(Bins::new(vec![Bin::new("a", 2.0, 2.0)]).is_err());
        assert!(Bins::new(vec![Bin::new("a", 3.0, 1.0)]).is_err());
    }

    #[test]
    fn gaps_map_to_other() {
        let bins = Bins::new(vec![Bin::new("a", 0.0, 1.0), Bin::new("b", 5.0, 6.0)]).unwrap();
        assert_eq!(bins.label_of(3.0), OTHER_BIN_LABEL);
    }

    #[test]
    fn nan_maps_to_other() {
        assert_eq!(instance_a_bins().label_of(f64::NAN), OTHER_BIN_LABEL);
    }

    #[test]
    fn labels_include_other() {
        let bins = instance_a_bins();
        let labels = bins.labels();
        assert_eq!(
            labels,
            vec!["1-60 seconds", "1-60 minutes", "1-5 hours", "other"]
        );
    }
}
