//! Report generation.
//!
//! XDMoD offers "custom report generation" and lets users "automate
//! reports" (§I-A, §I-D) — e.g. the summary reports a funding agency
//! requires of a collaborative research cloud (§II-E3). A [`Report`] is
//! an ordered list of sections (prose, charts, tables) rendered to a
//! single plain-text document; [`ReportSchedule`] computes the periodic
//! delivery times.

use crate::render::{ascii_bars, ascii_chart};
use crate::series::Dataset;
use xdmod_warehouse::time::Period;

/// One section of a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Section {
    /// A heading.
    Heading(String),
    /// Free prose.
    Text(String),
    /// A dataset rendered as a line chart.
    Chart(Dataset),
    /// A dataset rendered as horizontal bars.
    Bars(Dataset),
    /// A dataset rendered as a table (labels + per-series columns).
    Table(Dataset),
}

/// A report: title plus ordered sections.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Report title.
    pub title: String,
    sections: Vec<Section>,
}

impl Report {
    /// New empty report.
    pub fn new(title: &str) -> Self {
        Report {
            title: title.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Append a section (builder style).
    pub fn section(mut self, s: Section) -> Self {
        self.sections.push(s);
        self
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when the report has no sections.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Render to plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{}\n{}\n\n",
            self.title,
            "=".repeat(self.title.len())
        ));
        for s in &self.sections {
            match s {
                Section::Heading(h) => {
                    out.push_str(&format!("{h}\n{}\n", "-".repeat(h.len())));
                }
                Section::Text(t) => {
                    out.push_str(t);
                    out.push('\n');
                }
                Section::Chart(ds) => out.push_str(&ascii_chart(ds, 12)),
                Section::Bars(ds) => out.push_str(&ascii_bars(ds, 40)),
                Section::Table(ds) => out.push_str(&render_table(ds)),
            }
            out.push('\n');
        }
        out
    }
}

/// Render a dataset as an aligned text table.
pub fn render_table(ds: &Dataset) -> String {
    let mut widths: Vec<usize> = Vec::with_capacity(ds.series.len() + 1);
    widths.push(
        ds.labels
            .iter()
            .map(String::len)
            .chain(["label".len()])
            .max()
            .unwrap_or(5),
    );
    for s in &ds.series {
        widths.push(s.name.len().max(10));
    }
    let mut out = String::new();
    out.push_str(&format!("{:>w$}", "label", w = widths[0]));
    for (s, w) in ds.series.iter().zip(&widths[1..]) {
        out.push_str(&format!("  {:>w$}", s.name, w = w));
    }
    out.push('\n');
    for (i, label) in ds.labels.iter().enumerate() {
        out.push_str(&format!("{label:>w$}", w = widths[0]));
        for (s, w) in ds.series.iter().zip(&widths[1..]) {
            match s.values.get(i).copied().flatten() {
                Some(v) => out.push_str(&format!("  {v:>w$.2}", w = w)),
                None => out.push_str(&format!("  {:>w$}", "-", w = w)),
            }
        }
        out.push('\n');
    }
    out
}

/// A periodic report schedule (daily / monthly / quarterly / yearly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportSchedule {
    /// Delivery cadence.
    pub period: Period,
}

impl ReportSchedule {
    /// Next delivery time strictly after `now`: the start of the next
    /// period bucket.
    pub fn next_delivery(&self, now: i64) -> i64 {
        let bucket = self.period.bucket_of(now);
        self.period.bucket_start(bucket + 1)
    }

    /// All delivery times in `[from, to)`.
    pub fn deliveries_between(&self, from: i64, to: i64) -> Vec<i64> {
        let mut out = Vec::new();
        let mut t = self.next_delivery(from - 1);
        // next_delivery(from - 1) may equal `from` when `from` is exactly
        // a boundary — that's desired (boundary deliveries included).
        while t < to {
            out.push(t);
            t = self.next_delivery(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Series;
    use xdmod_warehouse::time::date_of_epoch;
    use xdmod_warehouse::CivilDate;

    fn dataset() -> Dataset {
        Dataset {
            title: "usage".into(),
            unit: "GB".into(),
            labels: vec!["jan".into(), "feb".into()],
            series: vec![Series {
                name: "physical".into(),
                values: vec![Some(10.0), None],
            }],
        }
    }

    #[test]
    fn report_renders_all_section_kinds() {
        let r = Report::new("Aristotle Monthly Report")
            .section(Section::Heading("Storage".into()))
            .section(Section::Text("Usage keeps growing.".into()))
            .section(Section::Chart(dataset()))
            .section(Section::Bars(dataset()))
            .section(Section::Table(dataset()));
        let text = r.render();
        assert!(text.starts_with("Aristotle Monthly Report\n===="));
        assert!(text.contains("Storage\n-------"));
        assert!(text.contains("Usage keeps growing."));
        assert!(text.contains("usage [GB]"));
        assert!(text.contains("physical"));
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn table_aligns_and_marks_gaps() {
        let table = render_table(&dataset());
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("label"));
        assert!(lines[1].contains("10.00"));
        assert!(lines[2].trim_end().ends_with('-'));
    }

    #[test]
    fn monthly_schedule_fires_at_month_starts() {
        let sched = ReportSchedule {
            period: Period::Month,
        };
        let mid_jan = CivilDate::new(2017, 1, 15).to_epoch();
        assert_eq!(
            sched.next_delivery(mid_jan),
            CivilDate::new(2017, 2, 1).to_epoch()
        );
        let deliveries = sched.deliveries_between(
            CivilDate::new(2017, 1, 1).to_epoch(),
            CivilDate::new(2017, 7, 1).to_epoch(),
        );
        assert_eq!(deliveries.len(), 6); // Jan 1 (boundary) .. Jun 1
        assert_eq!(deliveries[0], CivilDate::new(2017, 1, 1).to_epoch());
        assert_eq!(deliveries[5], CivilDate::new(2017, 6, 1).to_epoch());
        for d in deliveries {
            assert_eq!(date_of_epoch(d).day, 1);
        }
    }

    #[test]
    fn quarterly_schedule() {
        let sched = ReportSchedule {
            period: Period::Quarter,
        };
        let t = CivilDate::new(2017, 2, 10).to_epoch();
        assert_eq!(
            sched.next_delivery(t),
            CivilDate::new(2017, 4, 1).to_epoch()
        );
    }

    #[test]
    fn empty_report() {
        let r = Report::new("Empty");
        assert!(r.is_empty());
        assert!(r.render().contains("Empty"));
    }
}
