//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a small declarative schedule of failures — panic
//! at morsel *k* of operator *o*, fail allocation *n*, delay morsel *m*
//! by *d* virtual nanoseconds — attached to an
//! [`ExecEnv`](crate::ExecEnv) via
//! [`ExecEnv::with_fault_plan`](crate::ExecEnv). Both executors honor
//! the plan through a single test-only hook at the morsel boundary
//! ([`FaultInjector::on_morsel`]) plus one in the budget reservation
//! path ([`FaultInjector::on_alloc`]); with an empty plan the hooks are
//! branch-and-return.
//!
//! Plans round-trip through a compact text form so a failing schedule
//! found by the randomized chaos run can be uploaded as a CI artifact
//! and replayed verbatim:
//!
//! ```text
//! panic@q3/probe#5;alloc@q7#2;delay@q1/scan#3+1000000
//! ```
//!
//! - `panic@<query>/<op>#<k>` — panic when query `<query>` runs the
//!   `k`-th morsel (0-based) of the operator whose label contains
//!   `<op>`; an empty `<op>` matches any operator.
//! - `alloc@<query>#<n>` — fail the `n`-th budget reservation made by
//!   `<query>`.
//! - `delay@<query>/<op>#<m>+<ns>` — charge `<ns>` extra virtual
//!   nanoseconds of CPU to the `m`-th morsel of `<op>`. Under
//!   [`SimExecutor`](crate::SimExecutor) this deterministically
//!   perturbs the schedule; the threaded executor records it in the
//!   morsel profile but does not sleep.
//!
//! The write path adds three WAL-targeted kinds, consumed by the
//! storage layer's log (via [`FaultPlan::wal_faults`]) rather than the
//! executors:
//!
//! - `crash@lsn#<n>` — kill the log immediately before writing LSN
//!   `<n>`; the file keeps exactly the preceding records.
//! - `torn@lsn#<n>+<b>` — write only `<b>` bytes of LSN `<n>`'s frame.
//! - `fsync@wal#<n>` — fail the `<n>`-th WAL fsync (0-based).
//!
//! Morsel indices count *executions* of (query, operator) pairs as
//! observed by the injector. Under the simulator's single event loop
//! this is fully deterministic; under real threads the interleaving
//! (and hence which physical morsel is the `k`-th) can vary run to
//! run, which is fine for the chaos invariants — they quantify over
//! "some morsel of this query panicked", not which one.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use parking_lot::Mutex;

/// One injected failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Panic on the `morsel`-th execution of an operator of `query`
    /// whose label contains `op` (empty `op` = any operator).
    PanicAt {
        query: String,
        op: String,
        morsel: u64,
    },
    /// Fail the `alloc`-th budget reservation made by `query`.
    FailAlloc { query: String, alloc: u64 },
    /// Delay the `morsel`-th execution of a matching operator by
    /// `delay_ns` virtual nanoseconds.
    DelayMorsel {
        query: String,
        op: String,
        morsel: u64,
        delay_ns: u64,
    },
    /// Kill the write-ahead log immediately before it writes the frame
    /// with this LSN: the file keeps exactly the preceding records and
    /// the engine is poisoned (must restart and recover).
    CrashAtLsn { lsn: u64 },
    /// Write only `keep` bytes of the frame with this LSN (a torn
    /// write), then poison the log.
    TornWrite { lsn: u64, keep: u32 },
    /// Fail the `nth` WAL fsync (0-based), poisoning the log — the
    /// post-fsyncgate model: a failed fsync means durability is
    /// unknowable and the only safe move is crash-and-recover.
    FailFsync { nth: u64 },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::PanicAt { query, op, morsel } => write!(f, "panic@{query}/{op}#{morsel}"),
            Fault::FailAlloc { query, alloc } => write!(f, "alloc@{query}#{alloc}"),
            Fault::DelayMorsel {
                query,
                op,
                morsel,
                delay_ns,
            } => write!(f, "delay@{query}/{op}#{morsel}+{delay_ns}"),
            Fault::CrashAtLsn { lsn } => write!(f, "crash@lsn#{lsn}"),
            Fault::TornWrite { lsn, keep } => write!(f, "torn@lsn#{lsn}+{keep}"),
            Fault::FailFsync { nth } => write!(f, "fsync@wal#{nth}"),
        }
    }
}

impl FromStr for Fault {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, rest) = s
            .split_once('@')
            .ok_or_else(|| format!("fault {s:?}: missing '@'"))?;
        let num = |txt: &str, what: &str| -> Result<u64, String> {
            txt.parse::<u64>()
                .map_err(|_| format!("fault {s:?}: bad {what} {txt:?}"))
        };
        match kind {
            "panic" | "delay" => {
                let (target, tail) = rest
                    .split_once('#')
                    .ok_or_else(|| format!("fault {s:?}: missing '#<morsel>'"))?;
                let (query, op) = target.split_once('/').unwrap_or((target, ""));
                if kind == "panic" {
                    Ok(Fault::PanicAt {
                        query: query.to_string(),
                        op: op.to_string(),
                        morsel: num(tail, "morsel index")?,
                    })
                } else {
                    let (morsel, delay) = tail
                        .split_once('+')
                        .ok_or_else(|| format!("fault {s:?}: delay needs '+<ns>'"))?;
                    Ok(Fault::DelayMorsel {
                        query: query.to_string(),
                        op: op.to_string(),
                        morsel: num(morsel, "morsel index")?,
                        delay_ns: num(delay, "delay")?,
                    })
                }
            }
            "alloc" => {
                let (query, alloc) = rest
                    .split_once('#')
                    .ok_or_else(|| format!("fault {s:?}: missing '#<alloc>'"))?;
                Ok(Fault::FailAlloc {
                    query: query.to_string(),
                    alloc: num(alloc, "alloc index")?,
                })
            }
            "crash" => {
                let tail = rest
                    .strip_prefix("lsn#")
                    .ok_or_else(|| format!("fault {s:?}: crash targets 'lsn#<n>'"))?;
                Ok(Fault::CrashAtLsn {
                    lsn: num(tail, "lsn")?,
                })
            }
            "torn" => {
                let tail = rest
                    .strip_prefix("lsn#")
                    .ok_or_else(|| format!("fault {s:?}: torn targets 'lsn#<n>+<bytes>'"))?;
                let (lsn, keep) = tail
                    .split_once('+')
                    .ok_or_else(|| format!("fault {s:?}: torn needs '+<bytes>'"))?;
                Ok(Fault::TornWrite {
                    lsn: num(lsn, "lsn")?,
                    keep: num(keep, "byte count")? as u32,
                })
            }
            "fsync" => {
                let tail = rest
                    .strip_prefix("wal#")
                    .ok_or_else(|| format!("fault {s:?}: fsync targets 'wal#<n>'"))?;
                Ok(Fault::FailFsync {
                    nth: num(tail, "fsync index")?,
                })
            }
            other => Err(format!("fault {s:?}: unknown kind {other:?}")),
        }
    }
}

/// A schedule of injected faults; the unit the chaos suite generates,
/// serializes on failure, and replays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults; hooks are free).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Extract the WAL-targeted entries as a storage-layer fault
    /// schedule (the transaction layer attaches it to its log). Plans
    /// mixing executor faults and WAL faults work: each layer consumes
    /// the entries it understands.
    pub fn wal_faults(&self) -> morsel_storage::WalFaults {
        let mut wf = morsel_storage::WalFaults::none();
        for fault in &self.faults {
            match fault {
                Fault::CrashAtLsn { lsn } => wf.crash_at_lsn.push(*lsn),
                Fault::TornWrite { lsn, keep } => wf.torn_write.push((*lsn, *keep)),
                Fault::FailFsync { nth } => wf.fail_fsync.push(*nth),
                _ => {}
            }
        }
        wf
    }

    /// True when the plan contains at least one WAL fault.
    pub fn has_wal_faults(&self) -> bool {
        !self.wal_faults().is_empty()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut faults = Vec::new();
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            faults.push(part.parse()?);
        }
        Ok(FaultPlan { faults })
    }
}

/// What [`FaultInjector::on_morsel`] tells the executor to do for one
/// morsel.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MorselFault {
    /// Panic with this message before running the operator.
    pub panic_msg: Option<String>,
    /// Extra virtual nanoseconds to charge to the morsel.
    pub delay_ns: u64,
}

/// Stateful interpreter for a [`FaultPlan`]: tracks how many morsels
/// each (query, operator) pair has run and how many reservations each
/// query has made, and fires each fault exactly once. With an empty
/// plan every hook returns immediately without locking.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

#[derive(Debug, Default)]
struct InjectorState {
    /// Morsel execution counts per (query, operator label).
    morsels: HashMap<(String, String), u64>,
    /// Budget reservation counts per query.
    allocs: HashMap<String, u64>,
    /// One flag per plan entry: fired faults never fire again.
    fired: Vec<bool>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.faults.len()];
        FaultInjector {
            plan,
            state: Mutex::new(InjectorState {
                fired,
                ..Default::default()
            }),
        }
    }

    /// The plan this injector interprets.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Called by the executor before each morsel runs. Returns the
    /// injected behavior for this (query, operator) execution.
    pub fn on_morsel(&self, query: &str, op: &str) -> MorselFault {
        if self.plan.is_empty() {
            return MorselFault::default();
        }
        let mut st = self.state.lock();
        // Two counters advance per execution: one for this (query,
        // operator) pair, one query-wide. A fault with an explicit op
        // indexes the pair counter ("morsel k of operator o"); a fault
        // with an empty op indexes the query-wide one ("morsel k of the
        // query, whichever operator runs it").
        let seq_op = {
            let c = st
                .morsels
                .entry((query.to_string(), op.to_string()))
                .or_insert(0);
            let cur = *c;
            *c += 1;
            cur
        };
        let seq_query = if op.is_empty() {
            seq_op
        } else {
            let c = st
                .morsels
                .entry((query.to_string(), String::new()))
                .or_insert(0);
            let cur = *c;
            *c += 1;
            cur
        };
        let seq_for = |o: &str| if o.is_empty() { seq_query } else { seq_op };
        let mut out = MorselFault::default();
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if st.fired[i] {
                continue;
            }
            match fault {
                Fault::PanicAt {
                    query: q,
                    op: o,
                    morsel,
                } if q == query && op.contains(o.as_str()) && *morsel == seq_for(o) => {
                    st.fired[i] = true;
                    out.panic_msg = Some(format!("injected fault: {fault}"));
                }
                Fault::DelayMorsel {
                    query: q,
                    op: o,
                    morsel,
                    delay_ns,
                } if q == query && op.contains(o.as_str()) && *morsel == seq_for(o) => {
                    st.fired[i] = true;
                    out.delay_ns += delay_ns;
                }
                _ => {}
            }
        }
        out
    }

    /// Called by the budget reservation path. True means this
    /// reservation must fail as if the budget were exhausted.
    pub fn on_alloc(&self, query: &str) -> bool {
        if self.plan.is_empty() {
            return false;
        }
        let mut st = self.state.lock();
        let seq = {
            let c = st.allocs.entry(query.to_string()).or_insert(0);
            let cur = *c;
            *c += 1;
            cur
        };
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if st.fired[i] {
                continue;
            }
            if let Fault::FailAlloc { query: q, alloc } = fault {
                if q == query && *alloc == seq {
                    st.fired[i] = true;
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_display() {
        let plan: FaultPlan = "panic@q3/probe#5;alloc@q7#2;delay@q1/scan#3+1000000"
            .parse()
            .unwrap();
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(
            plan.to_string(),
            "panic@q3/probe#5;alloc@q7#2;delay@q1/scan#3+1000000"
        );
        let reparsed: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn panic_without_op_matches_any_operator() {
        let plan: FaultPlan = "panic@q#1".parse().unwrap();
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_morsel("q", "scan"), MorselFault::default());
        let hit = inj.on_morsel("q", "probe");
        assert!(hit.panic_msg.is_some());
        // Fires exactly once.
        assert_eq!(inj.on_morsel("q", "probe"), MorselFault::default());
    }

    #[test]
    fn morsel_counters_are_per_query_and_operator() {
        let plan: FaultPlan = "panic@a/scan#1".parse().unwrap();
        let inj = FaultInjector::new(plan);
        // Other queries and operators advance their own counters.
        assert!(inj.on_morsel("b", "scan").panic_msg.is_none());
        assert!(inj.on_morsel("a", "probe").panic_msg.is_none());
        assert!(inj.on_morsel("a", "scan").panic_msg.is_none()); // #0
        assert!(inj.on_morsel("a", "scan").panic_msg.is_some()); // #1
    }

    #[test]
    fn alloc_faults_count_reservations_per_query() {
        let plan: FaultPlan = "alloc@q#2".parse().unwrap();
        let inj = FaultInjector::new(plan);
        assert!(!inj.on_alloc("q")); // #0
        assert!(!inj.on_alloc("other"));
        assert!(!inj.on_alloc("q")); // #1
        assert!(inj.on_alloc("q")); // #2 fires
        assert!(!inj.on_alloc("q")); // once only
    }

    #[test]
    fn delay_accumulates_into_morsel_fault() {
        let plan: FaultPlan = "delay@q/scan#0+500;delay@q/scan#0+250".parse().unwrap();
        let inj = FaultInjector::new(plan);
        let hit = inj.on_morsel("q", "scan-stage");
        assert_eq!(hit.delay_ns, 750);
        assert!(hit.panic_msg.is_none());
    }

    #[test]
    fn wal_faults_round_trip_and_extract() {
        let text = "crash@lsn#42;torn@lsn#7+13;fsync@wal#2;panic@q/scan#0";
        let plan: FaultPlan = text.parse().unwrap();
        assert_eq!(plan.to_string(), text);
        assert!(plan.has_wal_faults());
        let wf = plan.wal_faults();
        assert_eq!(wf.crash_at_lsn, vec![42]);
        assert_eq!(wf.torn_write, vec![(7, 13)]);
        assert_eq!(wf.fail_fsync, vec![2]);
        // Executor-side entries are invisible to the WAL extraction and
        // vice versa.
        let exec_only: FaultPlan = "panic@q#0".parse().unwrap();
        assert!(!exec_only.has_wal_faults());
        assert!(exec_only.wal_faults().is_empty());
    }

    #[test]
    fn malformed_wal_faults_error_loudly() {
        assert!("crash@q#1".parse::<FaultPlan>().is_err()); // must target lsn#
        assert!("crash@lsn#".parse::<FaultPlan>().is_err());
        assert!("torn@lsn#5".parse::<FaultPlan>().is_err()); // missing +bytes
        assert!("fsync@lsn#1".parse::<FaultPlan>().is_err()); // must target wal#
    }

    #[test]
    fn malformed_plans_error_loudly() {
        assert!("panic@q".parse::<FaultPlan>().is_err());
        assert!("delay@q/op#3".parse::<FaultPlan>().is_err()); // missing +ns
        assert!("explode@q#1".parse::<FaultPlan>().is_err());
        assert!("panic@q/op#notanumber".parse::<FaultPlan>().is_err());
        // Empty segments are tolerated (trailing semicolons).
        let plan: FaultPlan = "panic@q#0;".parse().unwrap();
        assert_eq!(plan.faults.len(), 1);
    }

    #[test]
    fn empty_plan_hooks_are_inert() {
        let inj = FaultInjector::new(FaultPlan::none());
        assert_eq!(inj.on_morsel("q", "op"), MorselFault::default());
        assert!(!inj.on_alloc("q"));
    }
}
