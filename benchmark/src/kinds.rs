//! Per-kind sample logs. A *kind* is one fixture, one DML verb,
//! `merge`, or one read query; every end-to-end latency metric is
//! built from per-kind samples, and the per-kind detail file is this
//! log written out.

use crate::engine::{Cache, Sample, Status};
use crate::json::Json;
use crate::measure::{geomean, median, percentile};

#[derive(Debug, Clone, Default)]
pub struct Kind {
    pub name: String,
    /// Latencies of the statements that completed, in milliseconds.
    pub ms: Vec<f64>,
    pub failed: u64,
    pub wrong: u64,
    /// Statements whose first attempt failed or was wrong and that were
    /// run again (whatever the second attempt came to).
    pub retried: u64,
    pub hits: u64,
    pub misses: u64,
    pub bypasses: u64,
    /// Why the first few failed, wrong or retried statements were so.
    pub reasons: Vec<String>,
}

impl Kind {
    pub fn attempted(&self) -> u64 {
        self.ms.len() as u64 + self.failed
    }

    pub fn median_ms(&self) -> f64 {
        median(&mut self.ms.clone())
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < 4 {
            self.reasons.push(reason);
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct KindLog {
    pub kinds: Vec<Kind>,
}

impl KindLog {
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> KindLog {
        KindLog {
            kinds: names
                .into_iter()
                .map(|n| Kind {
                    name: n.into(),
                    ..Kind::default()
                })
                .collect(),
        }
    }

    /// Pool another log over the same kinds into this one.
    pub fn absorb(&mut self, other: &KindLog) {
        assert_eq!(self.kinds.len(), other.kinds.len(), "logs of one workload");
        for (mine, theirs) in self.kinds.iter_mut().zip(&other.kinds) {
            assert_eq!(mine.name, theirs.name, "logs of one workload");
            mine.ms.extend(&theirs.ms);
            mine.failed += theirs.failed;
            mine.wrong += theirs.wrong;
            mine.retried += theirs.retried;
            mine.hits += theirs.hits;
            mine.misses += theirs.misses;
            mine.bypasses += theirs.bypasses;
            for reason in &theirs.reasons {
                mine.note(reason.clone());
            }
        }
    }

    pub fn index_of(&self, name: &str) -> usize {
        self.kinds
            .iter()
            .position(|k| k.name == name)
            .unwrap_or_else(|| panic!("no kind named {name}"))
    }

    /// Log one statement of kind `idx`. A failed statement has no
    /// latency sample; a wrong result keeps its latency and is counted.
    pub fn record(&mut self, idx: usize, latency_ms: f64, status: &Status, cache: Cache) {
        let k = &mut self.kinds[idx];
        match status {
            Status::Ok => k.ms.push(latency_ms),
            Status::Wrong(why) => {
                k.ms.push(latency_ms);
                k.wrong += 1;
                k.note(format!("wrong result: {why}"));
            }
            Status::Failed(why) => {
                k.failed += 1;
                k.note(format!("failed: {why}"));
            }
        }
        match cache {
            Cache::Hit => k.hits += 1,
            Cache::Miss => k.misses += 1,
            Cache::Bypass => k.bypasses += 1,
        }
    }

    /// Log one checked SELECT, with the retry it may have needed.
    pub fn record_sample(&mut self, idx: usize, latency_ms: f64, sample: &Sample) {
        self.record(idx, latency_ms, &sample.status, sample.cache);
        if let Some(why) = &sample.retried {
            let k = &mut self.kinds[idx];
            k.retried += 1;
            k.note(format!("first attempt {why}"));
        }
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.iter().map(Kind::attempted).sum()
    }

    /// Statements that needed a second attempt.
    pub fn retried(&self) -> u64 {
        self.kinds.iter().map(|k| k.retried).sum()
    }

    /// Statements that failed, were refused or cancelled, or returned
    /// wrong rows.
    pub fn failed(&self) -> u64 {
        self.kinds.iter().map(|k| k.failed + k.wrong).sum()
    }

    pub fn completed(&self) -> u64 {
        self.kinds.iter().map(|k| k.ms.len() as u64).sum()
    }

    /// Geometric mean over the kinds of each kind's median latency —
    /// the paper's geo-mean, with the per-kind median taken first so
    /// one slow sample moves nothing.
    pub fn geomean_of_medians(&self) -> f64 {
        let medians: Vec<f64> = self
            .kinds
            .iter()
            .filter(|k| !k.ms.is_empty())
            .map(Kind::median_ms)
            .collect();
        geomean(&medians)
    }

    /// The 95th percentile over the pooled statements of the kinds
    /// `keep` selects, and the pool's size. A failed statement misses
    /// any latency limit, so it ranks as the slowest one seen.
    pub fn pooled_p95(&self, keep: impl Fn(&Kind) -> bool) -> (f64, usize) {
        let mut pool: Vec<f64> = Vec::new();
        let mut failed = 0usize;
        for k in self.kinds.iter().filter(|k| keep(k)) {
            pool.extend(&k.ms);
            failed += k.failed as usize;
        }
        let worst = pool.iter().copied().fold(0.0, f64::max);
        pool.extend(std::iter::repeat_n(worst, failed));
        let n = pool.len();
        (percentile(&mut pool, 95.0), n)
    }

    /// One line per kind that had failures or retries, with the first
    /// reasons.
    pub fn failure_notes(&self) -> Vec<String> {
        self.kinds
            .iter()
            .filter(|k| !k.reasons.is_empty())
            .map(|k| {
                format!(
                    "{}: {} failed, {} wrong, {} retried — {}",
                    k.name,
                    k.failed,
                    k.wrong,
                    k.retried,
                    k.reasons.join("; ")
                )
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.kinds
                .iter()
                .map(|k| {
                    let mut ms = k.ms.clone();
                    Json::obj([
                        ("kind", Json::str(k.name.as_str())),
                        ("samples", Json::Int(k.ms.len() as u64)),
                        ("failed", Json::Int(k.failed)),
                        ("wrong", Json::Int(k.wrong)),
                        ("retried", Json::Int(k.retried)),
                        ("median_ms", Json::Num(median(&mut ms))),
                        ("p95_ms", Json::Num(percentile(&mut ms, 95.0))),
                        ("plan_cache_hit", Json::Int(k.hits)),
                        ("plan_cache_miss", Json::Int(k.misses)),
                        ("plan_cache_bypass", Json::Int(k.bypasses)),
                        (
                            "reasons",
                            Json::Arr(k.reasons.iter().map(Json::str).collect()),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_and_rank_slowest() {
        let mut log = KindLog::new(["a", "b"]);
        for i in 1..=19 {
            log.record(0, f64::from(i), &Status::Ok, Cache::Hit);
        }
        log.record(0, 0.0, &Status::Failed("x".into()), Cache::Bypass);
        log.record(1, 4.0, &Status::Wrong("y".into()), Cache::Miss);
        assert_eq!(log.attempted(), 21);
        assert_eq!(log.failed(), 2);
        assert_eq!(log.completed(), 20);
        let (p95, n) = log.pooled_p95(|k| k.name == "a");
        assert_eq!((p95, n), (19.0, 20));
        assert!((log.geomean_of_medians() - (10.0f64 * 4.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn a_retried_statement_is_counted_but_not_failed() {
        let mut log = KindLog::new(["a"]);
        let sample = Sample {
            latency_ns: 0,
            status: Status::Ok,
            cache: Cache::Hit,
            facts: Default::default(),
            retried: Some("failed: operator panic".into()),
        };
        log.record_sample(0, 7.0, &sample);
        assert_eq!((log.attempted(), log.failed(), log.retried()), (1, 0, 1));
        assert_eq!(log.kinds[0].ms, [7.0]);
        assert_eq!(log.failure_notes().len(), 1);
    }
}
