//! Cloud (OpenStack-style) event-feed shredder with a full VM lifecycle
//! state machine.
//!
//! "Two VMs on a single cloud resource may be configured with vastly
//! different hardware and software characteristics ... Certain
//! characteristics of a VM, such as allocated memory, can even be changed
//! during the life of the VM. ... VMs can also be stopped, restarted, and
//! paused, so their changes of state are important to monitor." (§III-B)
//!
//! The feed is CSV, one lifecycle event per line:
//!
//! ```text
//! ts,vm_id,event,user,project,instance_type,cores,memory_gb,disk_gb,venue,resource
//! 1483300000,vm-1,CREATE,alice,aristotle,m1.small,2,4,40,api,ccr-cloud
//! 1483300060,vm-1,START,,,,,,,,
//! ```
//!
//! Config fields (`user`..`resource`) are required on `CREATE` and
//! `RESIZE` (the fields being resized) and ignored elsewhere.
//! Sessionization turns the event stream into `cloudfact` rows: one row
//! per interval during which the VM ran with a fixed configuration.
//! Invalid transitions are skipped with warnings (a production collector
//! must survive noisy feeds); malformed lines are hard errors.

use crate::report::{IngestError, IngestReport, Result};
use std::collections::BTreeMap;
use xdmod_warehouse::{Row, Value};

/// VM lifecycle event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// VM defined with an initial configuration.
    Create,
    /// VM begins running.
    Start,
    /// VM stops (can be started again).
    Stop,
    /// VM paused (still provisioned; not accruing run time here).
    Pause,
    /// Paused VM resumes running.
    Resume,
    /// Configuration changed (cores/memory/disk); allowed mid-life.
    Resize,
    /// VM destroyed.
    Terminate,
}

impl EventKind {
    fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "CREATE" => EventKind::Create,
            "START" => EventKind::Start,
            "STOP" => EventKind::Stop,
            "PAUSE" => EventKind::Pause,
            "RESUME" | "UNPAUSE" => EventKind::Resume,
            "RESIZE" => EventKind::Resize,
            "TERMINATE" | "DELETE" => EventKind::Terminate,
            _ => return None,
        })
    }
}

/// One parsed lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub struct VmEvent {
    /// Event time, epoch seconds.
    pub ts: i64,
    /// VM identifier.
    pub vm_id: String,
    /// What happened.
    pub kind: EventKind,
    /// Configuration fields (populated on `Create`/`Resize`).
    pub config: Option<VmConfig>,
}

/// A VM's configuration at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct VmConfig {
    /// Owning user.
    pub user: String,
    /// Project/tenant.
    pub project: String,
    /// Flavor name.
    pub instance_type: String,
    /// vCPU count.
    pub cores: i64,
    /// Allocated memory, GB.
    pub memory_gb: f64,
    /// Allocated disk, GB.
    pub disk_gb: f64,
    /// Submission venue (api, dashboard, cli, gateway).
    pub venue: String,
    /// Cloud resource name.
    pub resource: String,
}

/// Parse one CSV line into a [`VmEvent`].
pub fn parse_line(line: &str, lineno: usize) -> Result<VmEvent> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 11 {
        return Err(IngestError::at(
            lineno,
            format!("expected 11 fields, found {}", fields.len()),
        ));
    }
    let ts: i64 = fields[0]
        .parse()
        .map_err(|_| IngestError::at(lineno, format!("bad ts {:?}", fields[0])))?;
    let vm_id = fields[1].to_owned();
    if vm_id.is_empty() {
        return Err(IngestError::at(lineno, "empty vm_id"));
    }
    let kind = EventKind::parse(fields[2])
        .ok_or_else(|| IngestError::at(lineno, format!("unknown event {:?}", fields[2])))?;
    let config = if matches!(kind, EventKind::Create | EventKind::Resize) {
        let cores: i64 = fields[6]
            .parse()
            .map_err(|_| IngestError::at(lineno, format!("bad cores {:?}", fields[6])))?;
        let memory_gb: f64 = fields[7]
            .parse()
            .map_err(|_| IngestError::at(lineno, format!("bad memory_gb {:?}", fields[7])))?;
        let disk_gb: f64 = fields[8]
            .parse()
            .map_err(|_| IngestError::at(lineno, format!("bad disk_gb {:?}", fields[8])))?;
        if cores < 1 || memory_gb <= 0.0 || disk_gb < 0.0 {
            return Err(IngestError::at(lineno, "non-positive VM configuration"));
        }
        for (idx, name) in [
            (3, "user"),
            (4, "project"),
            (5, "instance_type"),
            (10, "resource"),
        ] {
            if fields[idx].is_empty() {
                return Err(IngestError::at(
                    lineno,
                    format!("empty {name} on config event"),
                ));
            }
        }
        Some(VmConfig {
            user: fields[3].to_owned(),
            project: fields[4].to_owned(),
            instance_type: fields[5].to_owned(),
            cores,
            memory_gb,
            disk_gb,
            venue: fields[9].to_owned(),
            resource: fields[10].to_owned(),
        })
    } else {
        None
    };
    Ok(VmEvent {
        ts,
        vm_id,
        kind,
        config,
    })
}

/// Parse a full event feed (header optional, `#` comments allowed).
pub fn parse_feed(feed: &str) -> Result<Vec<VmEvent>> {
    let mut events = Vec::new();
    for (i, raw) in feed.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("ts,") {
            continue;
        }
        events.push(parse_line(line, lineno)?);
    }
    Ok(events)
}

/// Lifecycle states of the VM state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VmState {
    Created,
    Running,
    Paused,
    Stopped,
    Terminated,
}

struct VmTracker {
    state: VmState,
    config: VmConfig,
    /// When the current running interval opened.
    running_since: Option<i64>,
    /// Whether the VM has ever been started (first session gets
    /// `started = true`).
    ever_started: bool,
    /// Lifecycle events since the last emitted session.
    pending_changes: i64,
}

/// Sessionize an event feed into `cloudfact` rows.
///
/// `as_of` closes out still-running VMs at the observation horizon with
/// `ended = false` — those are the paper's "Number of VMs Running".
/// Events are processed in timestamp order (stable for ties). Semantic
/// violations (START while running, events on unknown or terminated VMs,
/// time going backwards) are skipped with warnings.
pub fn sessionize(mut events: Vec<VmEvent>, as_of: i64) -> (Vec<Row>, IngestReport) {
    events.sort_by_key(|e| e.ts);
    let mut vms: BTreeMap<String, VmTracker> = BTreeMap::new();
    let mut rows = Vec::new();
    let mut report = IngestReport::default();
    let mut last_ts: BTreeMap<String, i64> = BTreeMap::new();

    let emit = |rows: &mut Vec<Row>,
                vm_id: &str,
                tracker: &mut VmTracker,
                end_ts: i64,
                started: bool,
                ended: bool| {
        let start_ts = tracker.running_since.take().expect("session open"); // xc-allow: emit is only called for running sessions
        let wall_hours = (end_ts - start_ts) as f64 / 3600.0;
        let c = &tracker.config;
        rows.push(vec![
            Value::Str(vm_id.to_owned()),
            Value::Str(c.resource.clone()),
            Value::Str(c.project.clone()),
            Value::Str(c.user.clone()),
            Value::Str(c.instance_type.clone()),
            Value::Str(c.venue.clone()),
            Value::Int(c.cores),
            Value::Float(c.memory_gb),
            Value::Float(c.disk_gb),
            Value::Time(start_ts),
            Value::Time(end_ts),
            Value::Float(wall_hours),
            Value::Float(wall_hours * c.cores as f64),
            Value::Bool(started),
            Value::Bool(ended),
            Value::Int(tracker.pending_changes),
        ]);
        tracker.pending_changes = 0;
    };

    for ev in events {
        if let Some(&prev) = last_ts.get(&ev.vm_id) {
            if ev.ts < prev {
                report.skip(format!(
                    "vm {}: event at {} precedes earlier event at {prev}",
                    ev.vm_id, ev.ts
                ));
                continue;
            }
        }
        if ev.kind == EventKind::Create {
            if vms.contains_key(&ev.vm_id) {
                report.skip(format!("vm {}: duplicate CREATE", ev.vm_id));
                continue;
            }
            vms.insert(
                ev.vm_id.clone(),
                VmTracker {
                    state: VmState::Created,
                    config: ev.config.expect("CREATE carries config"), // xc-allow: the event parser requires a config on CREATE
                    running_since: None,
                    ever_started: false,
                    pending_changes: 0,
                },
            );
            last_ts.insert(ev.vm_id, ev.ts);
            continue;
        }
        let Some(tracker) = vms.get_mut(&ev.vm_id) else {
            report.skip(format!("vm {}: {:?} before CREATE", ev.vm_id, ev.kind));
            continue;
        };
        if tracker.state == VmState::Terminated {
            report.skip(format!("vm {}: {:?} after TERMINATE", ev.vm_id, ev.kind));
            continue;
        }
        match ev.kind {
            EventKind::Create => unreachable!("handled above"),
            EventKind::Start => match tracker.state {
                VmState::Created | VmState::Stopped => {
                    tracker.pending_changes += 1;
                    tracker.state = VmState::Running;
                    tracker.running_since = Some(ev.ts);
                }
                _ => {
                    report.skip(format!("vm {}: START while {:?}", ev.vm_id, tracker.state));
                    continue;
                }
            },
            EventKind::Stop | EventKind::Pause => {
                if tracker.state != VmState::Running {
                    report.skip(format!(
                        "vm {}: {:?} while {:?}",
                        ev.vm_id, ev.kind, tracker.state
                    ));
                    continue;
                }
                tracker.pending_changes += 1;
                let started = !tracker.ever_started;
                tracker.ever_started = true;
                emit(&mut rows, &ev.vm_id, tracker, ev.ts, started, false);
                tracker.state = if ev.kind == EventKind::Stop {
                    VmState::Stopped
                } else {
                    VmState::Paused
                };
            }
            EventKind::Resume => match tracker.state {
                VmState::Paused => {
                    tracker.pending_changes += 1;
                    tracker.state = VmState::Running;
                    tracker.running_since = Some(ev.ts);
                }
                _ => {
                    report.skip(format!("vm {}: RESUME while {:?}", ev.vm_id, tracker.state));
                    continue;
                }
            },
            EventKind::Resize => {
                tracker.pending_changes += 1;
                if tracker.state == VmState::Running {
                    // Close the old-config session and open a new one at
                    // the same instant — "allocated memory can even be
                    // changed during the life of the VM".
                    let started = !tracker.ever_started;
                    tracker.ever_started = true;
                    emit(&mut rows, &ev.vm_id, tracker, ev.ts, started, false);
                    tracker.config = ev.config.expect("RESIZE carries config"); // xc-allow: the event parser requires a config on RESIZE
                    tracker.running_since = Some(ev.ts);
                } else {
                    tracker.config = ev.config.expect("RESIZE carries config"); // xc-allow: the event parser requires a config on RESIZE
                }
            }
            EventKind::Terminate => {
                tracker.pending_changes += 1;
                if tracker.state == VmState::Running {
                    let started = !tracker.ever_started;
                    tracker.ever_started = true;
                    emit(&mut rows, &ev.vm_id, tracker, ev.ts, started, true);
                } else {
                    // Terminated without an open session: mark the VM's
                    // *last emitted* semantics by a zero-length ended
                    // session so "VMs Ended" counts it.
                    tracker.running_since = Some(ev.ts);
                    let started = !tracker.ever_started;
                    tracker.ever_started = true;
                    emit(&mut rows, &ev.vm_id, tracker, ev.ts, started, true);
                }
                tracker.state = VmState::Terminated;
            }
        }
        last_ts.insert(ev.vm_id, ev.ts);
    }

    // Close out still-running VMs at the observation horizon.
    for (vm_id, tracker) in vms.iter_mut() {
        if tracker.state == VmState::Running {
            let started = !tracker.ever_started;
            tracker.ever_started = true;
            let end = as_of.max(tracker.running_since.unwrap_or(as_of));
            emit(&mut rows, vm_id, tracker, end, started, false);
        }
    }
    report.ingested = rows.len();
    (rows, report)
}

/// Parse a feed and sessionize in one step.
pub fn shred(feed: &str, as_of: i64) -> Result<(Vec<Row>, IngestReport)> {
    let events = parse_feed(feed)?;
    Ok(sessionize(events, as_of))
}

/// Parse a reservation (purchased capacity) feed into
/// `cloud_reservation` rows — the paper's planned "VM reservation, or
/// payment, information" (§III-B).
///
/// CSV format, one purchased block per line:
///
/// ```text
/// reservation_id,resource,project,user,cores,memory_gb,start,end
/// rsv-001,ccr-cloud,genomics,alice,8,16,1483228800,1485907200
/// ```
///
/// `core_hours_purchased` is derived as `cores × (end - start) / 3600`.
pub fn shred_reservations(feed: &str) -> Result<(Vec<Row>, IngestReport)> {
    let mut rows = Vec::new();
    let mut report = IngestReport::default();
    for (i, raw) in feed.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("reservation_id,") {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 8 {
            return Err(IngestError::at(
                lineno,
                format!("expected 8 fields, found {}", fields.len()),
            ));
        }
        let int = |idx: usize, name: &str| -> Result<i64> {
            fields[idx]
                .parse()
                .map_err(|_| IngestError::at(lineno, format!("bad {name}: {:?}", fields[idx])))
        };
        let float = |idx: usize, name: &str| -> Result<f64> {
            fields[idx]
                .parse()
                .map_err(|_| IngestError::at(lineno, format!("bad {name}: {:?}", fields[idx])))
        };
        let cores = int(4, "cores")?;
        let memory_gb = float(5, "memory_gb")?;
        let start = int(6, "start")?;
        let end = int(7, "end")?;
        if cores < 1 || memory_gb <= 0.0 {
            return Err(IngestError::at(lineno, "non-positive reservation size"));
        }
        if end <= start {
            return Err(IngestError::at(lineno, "reservation ends before it starts"));
        }
        for (idx, name) in [
            (0, "reservation_id"),
            (1, "resource"),
            (2, "project"),
            (3, "user"),
        ] {
            if fields[idx].is_empty() {
                return Err(IngestError::at(lineno, format!("empty {name}")));
            }
        }
        let hours = (end - start) as f64 / 3600.0;
        rows.push(vec![
            Value::Str(fields[0].to_owned()),
            Value::Str(fields[1].to_owned()),
            Value::Str(fields[2].to_owned()),
            Value::Str(fields[3].to_owned()),
            Value::Int(cores),
            Value::Float(memory_gb),
            Value::Time(start),
            Value::Time(end),
            Value::Float(cores as f64 * hours),
        ]);
        report.ingested += 1;
    }
    Ok((rows, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdmod_realms::cloud::fact_schema;

    const CREATE: &str = "1000,vm-1,CREATE,alice,aristotle,m1.small,2,4,40,api,ccr-cloud";

    fn col(row: &Row, name: &str) -> Value {
        let schema = fact_schema();
        row[schema.column_index(name).unwrap()].clone()
    }

    #[test]
    fn simple_lifecycle_one_session() {
        let feed = format!("{CREATE}\n2000,vm-1,START,,,,,,,,\n9200,vm-1,TERMINATE,,,,,,,,\n");
        let (rows, report) = shred(&feed, 100_000).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(report.ingested, 1);
        let row = &rows[0];
        assert_eq!(col(row, "wall_hours"), Value::Float(2.0)); // 7200 s
        assert_eq!(col(row, "core_hours"), Value::Float(4.0)); // 2 cores
        assert_eq!(col(row, "started"), Value::Bool(true));
        assert_eq!(col(row, "ended"), Value::Bool(true));
        assert_eq!(col(row, "state_changes"), Value::Int(2)); // START + TERMINATE
        fact_schema().check_row(row.clone()).unwrap();
    }

    #[test]
    fn stop_start_yields_two_sessions() {
        let feed = format!(
            "{CREATE}\n2000,vm-1,START,,,,,,,,\n5600,vm-1,STOP,,,,,,,,\n\
             9200,vm-1,START,,,,,,,,\n12800,vm-1,TERMINATE,,,,,,,,\n"
        );
        let (rows, _) = shred(&feed, 100_000).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(col(&rows[0], "started"), Value::Bool(true));
        assert_eq!(col(&rows[0], "ended"), Value::Bool(false));
        assert_eq!(col(&rows[1], "started"), Value::Bool(false));
        assert_eq!(col(&rows[1], "ended"), Value::Bool(true));
        // Wall hours: 3600s each.
        assert_eq!(col(&rows[0], "wall_hours"), Value::Float(1.0));
        assert_eq!(col(&rows[1], "wall_hours"), Value::Float(1.0));
    }

    #[test]
    fn pause_resume_splits_session_and_excludes_paused_time() {
        let feed = format!(
            "{CREATE}\n1000,vm-1,START,,,,,,,,\n4600,vm-1,PAUSE,,,,,,,,\n\
             8200,vm-1,RESUME,,,,,,,,\n11800,vm-1,TERMINATE,,,,,,,,\n"
        );
        let (rows, _) = shred(&feed, 100_000).unwrap();
        assert_eq!(rows.len(), 2);
        let total_wall: f64 = rows
            .iter()
            .map(|r| col(r, "wall_hours").as_f64().unwrap())
            .sum();
        assert_eq!(total_wall, 2.0); // paused hour not counted
    }

    #[test]
    fn resize_mid_run_changes_configuration() {
        let feed = format!(
            "{CREATE}\n1000,vm-1,START,,,,,,,,\n4600,vm-1,RESIZE,alice,aristotle,m1.large,4,8,40,api,ccr-cloud\n8200,vm-1,TERMINATE,,,,,,,,\n"
        );
        let (rows, _) = shred(&feed, 100_000).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(col(&rows[0], "cores"), Value::Int(2));
        assert_eq!(col(&rows[0], "memory_gb"), Value::Float(4.0));
        assert_eq!(col(&rows[1], "cores"), Value::Int(4));
        assert_eq!(col(&rows[1], "memory_gb"), Value::Float(8.0));
        // Core hours reflect each session's own core count.
        assert_eq!(col(&rows[0], "core_hours"), Value::Float(2.0));
        assert_eq!(col(&rows[1], "core_hours"), Value::Float(4.0));
    }

    #[test]
    fn still_running_vm_closed_at_horizon_not_ended() {
        let feed = format!("{CREATE}\n1000,vm-1,START,,,,,,,,\n");
        let (rows, _) = shred(&feed, 1000 + 7200).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(col(&rows[0], "ended"), Value::Bool(false));
        assert_eq!(col(&rows[0], "wall_hours"), Value::Float(2.0));
    }

    #[test]
    fn terminate_of_stopped_vm_emits_zero_length_ended_session() {
        let feed = format!(
            "{CREATE}\n1000,vm-1,START,,,,,,,,\n4600,vm-1,STOP,,,,,,,,\n5000,vm-1,TERMINATE,,,,,,,,\n"
        );
        let (rows, _) = shred(&feed, 100_000).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(col(&rows[1], "ended"), Value::Bool(true));
        assert_eq!(col(&rows[1], "wall_hours"), Value::Float(0.0));
    }

    #[test]
    fn invalid_transitions_skipped_with_warnings() {
        let feed = format!(
            "{CREATE}\n1000,vm-1,START,,,,,,,,\n1100,vm-1,START,,,,,,,,\n\
             1200,vm-2,STOP,,,,,,,,\n2000,vm-1,TERMINATE,,,,,,,,\n\
             2100,vm-1,START,,,,,,,,\n"
        );
        let (rows, report) = shred(&feed, 100_000).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(report.skipped, 3);
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("START while Running")));
        assert!(report.warnings.iter().any(|w| w.contains("before CREATE")));
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("after TERMINATE")));
    }

    #[test]
    fn malformed_lines_are_hard_errors() {
        assert!(parse_feed("1000,vm-1,CREATE,alice,p,t,notanumber,4,40,api,r\n").is_err());
        assert!(parse_feed("1000,vm-1,EXPLODE,,,,,,,,\n").is_err());
        assert!(parse_feed("1000,vm-1,CREATE,,p,t,2,4,40,api,r\n").is_err()); // empty user
        assert!(parse_feed("1000\n").is_err());
        assert!(parse_feed("1000,vm-1,CREATE,a,p,t,0,4,40,api,r\n").is_err()); // zero cores
    }

    #[test]
    fn header_and_comments_tolerated() {
        let feed = format!(
            "ts,vm_id,event,user,project,instance_type,cores,memory_gb,disk_gb,venue,resource\n# synthetic\n{CREATE}\n"
        );
        assert_eq!(parse_feed(&feed).unwrap().len(), 1);
    }

    #[test]
    fn reservations_parse_and_match_schema() {
        let feed = "reservation_id,resource,project,user,cores,memory_gb,start,end\n\
                    rsv-001,ccr-cloud,genomics,alice,8,16,1483228800,1485907200\n\
                    # comment\n\
                    rsv-002,ccr-cloud,teaching,bob,2,4,1483228800,1483315200\n";
        let (rows, report) = shred_reservations(feed).unwrap();
        assert_eq!(report.ingested, 2);
        let schema = xdmod_realms::cloud::reservation_schema();
        for row in &rows {
            schema.check_row(row.clone()).unwrap();
        }
        // rsv-002: 2 cores × 24 h = 48 core-hours.
        let idx = schema.column_index("core_hours_purchased").unwrap();
        assert_eq!(rows[1][idx], Value::Float(48.0));
    }

    #[test]
    fn malformed_reservations_are_errors() {
        for bad in [
            "rsv,r,p,u,0,4,100,200",   // zero cores
            "rsv,r,p,u,2,4,200,100",   // ends before start
            "rsv,r,p,,2,4,100,200",    // empty user
            "rsv,r,p,u,2,4,100",       // missing field
            "rsv,r,p,u,two,4,100,200", // bad number
        ] {
            assert!(shred_reservations(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn out_of_order_events_per_vm_skipped() {
        // Two events with identical parse order but regressing clock for
        // vm-1 after sorting are impossible; craft regression via equal
        // sort keys: use an event whose ts precedes CREATE's.
        let feed = "1000,vm-1,CREATE,alice,p,t,2,4,40,api,r\n900,vm-1,START,,,,,,,,\n";
        let (rows, report) = shred(feed, 10_000).unwrap();
        // The START sorts before CREATE, so it arrives "before CREATE".
        assert!(rows.is_empty());
        assert_eq!(report.skipped, 1);
    }
}
