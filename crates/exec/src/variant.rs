//! System variants compared in the paper's Figure 11.
//!
//! The four curves: HyPer full-fledged, HyPer without NUMA awareness,
//! HyPer without adaptivity (static work division, no hash tagging), and
//! Vectorwise — a plan-driven Volcano engine with exchange operators,
//! which we emulate per Section 5.4 ("we emulated it in our morsel-driven
//! scheme by setting the morsel size to n/t") plus the exchange operators'
//! per-tuple routing cost and no NUMA awareness anywhere.

use morsel_core::SchedulingMode;
use morsel_numa::Placement;

use crate::weights;

/// Knobs that distinguish the compared systems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemVariant {
    pub name: &'static str,
    /// Dispatcher scheduling mode (given the worker count).
    pub numa_aware_scheduling: bool,
    /// Static plan-time work division (no stealing, morsel = n/t).
    pub static_division: bool,
    /// Data placement for base relations.
    pub placement: Placement,
    /// Early-filtering hash tagging enabled.
    pub tagging: bool,
    /// Extra per-tuple CPU at scans (exchange-operator emulation).
    pub exchange_ns: f64,
}

impl SystemVariant {
    /// "HyPer (full-fledged)".
    pub fn full() -> Self {
        SystemVariant {
            name: "HyPer (full-fledged)",
            numa_aware_scheduling: true,
            static_division: false,
            placement: Placement::FirstTouch,
            tagging: true,
            exchange_ns: 0.0,
        }
    }

    /// "HyPer (not NUMA aware)": OS placement, locality-blind dispatch.
    pub fn not_numa_aware() -> Self {
        SystemVariant {
            name: "HyPer (not NUMA aware)",
            numa_aware_scheduling: false,
            static_division: false,
            placement: Placement::OsDefault,
            tagging: true,
            exchange_ns: 0.0,
        }
    }

    /// "HyPer (non-adaptive)": additionally static division and no
    /// tagging.
    pub fn non_adaptive() -> Self {
        SystemVariant {
            name: "HyPer (non-adaptive)",
            numa_aware_scheduling: false,
            static_division: true,
            placement: Placement::OsDefault,
            tagging: false,
            exchange_ns: 0.0,
        }
    }

    /// The Volcano/exchange baseline standing in for Vectorwise.
    pub fn volcano() -> Self {
        SystemVariant {
            name: "Volcano (Vectorwise-like)",
            numa_aware_scheduling: false,
            static_division: true,
            placement: Placement::Interleaved,
            tagging: false,
            exchange_ns: weights::EXCHANGE_NS,
        }
    }

    /// Scheduling mode for a given worker count.
    pub fn mode(&self, workers: usize) -> SchedulingMode {
        if self.static_division {
            // HyPer's own static emulation keeps NUMA alignment; the
            // Volcano baseline is NUMA-oblivious throughout.
            SchedulingMode::Static {
                workers,
                align: self.numa_aware_scheduling || self.exchange_ns == 0.0,
            }
        } else if self.numa_aware_scheduling {
            SchedulingMode::NumaAware
        } else {
            SchedulingMode::NumaOblivious
        }
    }

    /// All four variants, in the paper's plotting order.
    pub fn all() -> Vec<SystemVariant> {
        vec![
            Self::full(),
            Self::not_numa_aware(),
            Self::non_adaptive(),
            Self::volcano(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes() {
        assert_eq!(SystemVariant::full().mode(8), SchedulingMode::NumaAware);
        assert_eq!(
            SystemVariant::not_numa_aware().mode(8),
            SchedulingMode::NumaOblivious
        );
        assert_eq!(
            SystemVariant::volcano().mode(8),
            SchedulingMode::Static {
                workers: 8,
                align: false
            }
        );
    }

    #[test]
    fn four_variants() {
        let all = SystemVariant::all();
        assert_eq!(all.len(), 4);
        assert!(all[0].tagging && !all[3].tagging);
        assert!(all[3].exchange_ns > 0.0);
    }
}
