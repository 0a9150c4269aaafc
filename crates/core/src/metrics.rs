//! A minimal metrics registry with Prometheus text exposition.
//!
//! `morsel-service`, the plan cache, the dispatcher, and the
//! memory pool each grew their own counters; this module unifies them
//! behind one exposition surface. A [`MetricsRegistry`] is *assembled at
//! snapshot time* from those existing counters (it is a rendering
//! buffer, not a live store — the hot paths keep their lock-free
//! atomics), then rendered in the Prometheus text format
//! (`# HELP`/`# TYPE` headers, `name{label="v"} value` samples,
//! histograms as `_bucket{le=}`/`_sum`/`_count` series).
//!
//! [`validate_exposition`] is the matching parser: it checks every line
//! and rejects duplicate series, and gates both the unit tests and the
//! CI `observability` job (`repro metrics` validates its own output and
//! exits nonzero on a violation).

use std::collections::HashSet;
use std::fmt::Write as _;

/// The three Prometheus metric kinds this engine exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One exposed sample: an optional family-name suffix (`_bucket`, `_sum`,
/// `_count` for histograms), label pairs, and a value.
#[derive(Debug, Clone)]
struct Sample {
    suffix: &'static str,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A named family of samples sharing one kind and help string.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    samples: Vec<Sample>,
}

/// An ordered collection of metric families, rendered to Prometheus text.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Vec<MetricFamily>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut MetricFamily {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            assert_eq!(
                self.families[i].kind, kind,
                "metric {name} registered with two kinds"
            );
            return &mut self.families[i];
        }
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        self.families.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        });
        self.families.last_mut().unwrap()
    }

    /// Add one counter sample (monotonic total).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family(name, help, MetricKind::Counter)
            .samples
            .push(sample("", labels, value));
    }

    /// Add one gauge sample (point-in-time value).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family(name, help, MetricKind::Gauge)
            .samples
            .push(sample("", labels, value));
    }

    /// Add one histogram: `buckets` are `(upper_bound, cumulative_count)`
    /// pairs in increasing bound order; the implicit `+Inf` bucket and
    /// the `_count` series both expose `count`.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        buckets: &[(f64, u64)],
        sum: f64,
        count: u64,
    ) {
        let fam = self.family(name, help, MetricKind::Histogram);
        for &(le, cum) in buckets {
            let mut s = sample("_bucket", labels, cum as f64);
            s.labels.push(("le".to_string(), format_float(le)));
            fam.samples.push(s);
        }
        let mut inf = sample("_bucket", labels, count as f64);
        inf.labels.push(("le".to_string(), "+Inf".to_string()));
        fam.samples.push(inf);
        fam.samples.push(sample("_sum", labels, sum));
        fam.samples.push(sample("_count", labels, count as f64));
    }

    pub fn families(&self) -> &[MetricFamily] {
        &self.families
    }

    /// Render the whole registry in the Prometheus text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
            for s in &fam.samples {
                out.push_str(&fam.name);
                out.push_str(s.suffix);
                if !s.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
                    }
                    out.push('}');
                }
                let _ = writeln!(out, " {}", format_float(s.value));
            }
        }
        out
    }
}

fn sample(suffix: &'static str, labels: &[(&str, &str)], value: f64) -> Sample {
    Sample {
        suffix,
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        value,
    }
}

/// Render a float the way Prometheus clients expect: integers without a
/// trailing `.0`, infinities as `+Inf`/`-Inf`.
fn format_float(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Validate a Prometheus text exposition: every line must parse (HELP /
/// TYPE comment or sample), every sample's family must be `# TYPE`d
/// first, and no two samples may share a (name, label set) series.
/// Returns the number of samples checked.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut typed: Vec<(String, MetricKind)> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: HELP for invalid name {name:?}"));
                    }
                }
                "TYPE" => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: TYPE for invalid name {name:?}"));
                    }
                    let kind = match parts.next() {
                        Some("counter") => MetricKind::Counter,
                        Some("gauge") => MetricKind::Gauge,
                        Some("histogram") => MetricKind::Histogram,
                        other => return Err(format!("line {n}: unknown metric type {other:?}")),
                    };
                    if typed.iter().any(|(t, _)| t == name) {
                        return Err(format!("line {n}: duplicate TYPE for {name}"));
                    }
                    typed.push((name.to_string(), kind));
                }
                _ => return Err(format!("line {n}: unknown comment keyword {keyword:?}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        let (name, _) = series.split_once('{').unwrap_or((series.as_str(), ""));
        let family_ok = typed.iter().any(|(t, kind)| {
            t == name
                || (*kind == MetricKind::Histogram
                    && ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suf| name.strip_suffix(suf) == Some(t.as_str())))
        });
        if !family_ok {
            return Err(format!("line {n}: sample {name} has no preceding # TYPE"));
        }
        if value.parse::<f64>().is_err() && !matches!(value.as_str(), "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {n}: unparsable value {value:?}"));
        }
        if !seen.insert(series.clone()) {
            return Err(format!("line {n}: duplicate series {series}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition contains no samples".to_string());
    }
    Ok(samples)
}

/// Split a sample line into its series identity (name plus *sorted*
/// label pairs, so label order doesn't hide duplicates) and value text.
fn parse_sample(line: &str) -> Result<(String, String), String> {
    let (ident, value) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unclosed label braces".to_string())?;
            if close < brace {
                return Err("malformed label braces".to_string());
            }
            let name = &line[..brace];
            let body = &line[brace + 1..close];
            let mut labels: Vec<(String, String)> = Vec::new();
            for pair in split_label_pairs(body)? {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label pair {pair:?} missing '='"))?;
                if !valid_label_name(k) {
                    return Err(format!("invalid label name {k:?}"));
                }
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("label value for {k} not quoted"))?;
                labels.push((k.to_string(), v.to_string()));
            }
            labels.sort();
            let rest = line[close + 1..].trim();
            let rendered: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            (format!("{name}{{{}}}", rendered.join(",")), rest)
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let rest = parts.next().unwrap_or("").trim();
            (name.to_string(), rest)
        }
    };
    let name_part = ident.split('{').next().unwrap_or("");
    if !valid_metric_name(name_part) {
        return Err(format!("invalid metric name {name_part:?}"));
    }
    if value.is_empty() || value.contains(' ') {
        // A trailing timestamp is legal Prometheus but this engine never
        // emits one; reject so accidental garbage can't hide there.
        return Err(format!("expected a single value, got {value:?}"));
    }
    Ok((ident, value.to_string()))
}

/// Split `a="x",b="y,z"` on commas outside quotes.
fn split_label_pairs(body: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                cur.push(c);
                escaped = true;
            }
            '"' => {
                cur.push(c);
                in_quotes = !in_quotes;
            }
            ',' if !in_quotes => {
                if !cur.trim().is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(c),
        }
    }
    if in_quotes {
        return Err("unterminated quoted label value".to_string());
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render_and_validate() {
        let mut reg = MetricsRegistry::new();
        reg.counter("morsel_queries_total", "Completed queries.", &[], 42.0);
        reg.counter(
            "morsel_outcomes_total",
            "Outcomes by kind.",
            &[("outcome", "completed"), ("priority", "1")],
            40.0,
        );
        reg.counter(
            "morsel_outcomes_total",
            "Outcomes by kind.",
            &[("outcome", "rejected"), ("priority", "1")],
            2.0,
        );
        reg.gauge(
            "morsel_mem_reserved_bytes",
            "Pool bytes reserved.",
            &[],
            0.0,
        );
        let text = reg.render();
        assert!(text.contains("# TYPE morsel_queries_total counter"));
        assert!(text.contains("morsel_outcomes_total{outcome=\"completed\",priority=\"1\"} 40"));
        let n = validate_exposition(&text).unwrap();
        assert_eq!(n, 4);
    }

    #[test]
    fn histogram_renders_buckets_sum_count() {
        let mut reg = MetricsRegistry::new();
        reg.histogram(
            "morsel_latency_ns",
            "Query latency.",
            &[("priority", "1")],
            &[(1000.0, 3), (1_000_000.0, 7)],
            1234.5,
            9,
        );
        let text = reg.render();
        assert!(text.contains("morsel_latency_ns_bucket{priority=\"1\",le=\"1000\"} 3"));
        assert!(text.contains("morsel_latency_ns_bucket{priority=\"1\",le=\"+Inf\"} 9"));
        assert!(text.contains("morsel_latency_ns_sum{priority=\"1\"} 1234.5"));
        assert!(text.contains("morsel_latency_ns_count{priority=\"1\"} 9"));
        // 2 explicit buckets + the +Inf bucket + _sum + _count.
        assert_eq!(validate_exposition(&text).unwrap(), 5);
    }

    #[test]
    fn validator_rejects_duplicates_and_garbage() {
        let dup = "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n";
        assert!(validate_exposition(dup).unwrap_err().contains("duplicate"));
        // Label reordering is the same series.
        let reordered = "# TYPE a counter\na{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2\n";
        assert!(validate_exposition(reordered)
            .unwrap_err()
            .contains("duplicate"));
        let untyped = "a 1\n";
        assert!(validate_exposition(untyped)
            .unwrap_err()
            .contains("no preceding # TYPE"));
        let bad_value = "# TYPE a counter\na one\n";
        assert!(validate_exposition(bad_value)
            .unwrap_err()
            .contains("unparsable value"));
        let bad_name = "# TYPE 9bad counter\n9bad 1\n";
        assert!(validate_exposition(bad_name).is_err());
        let empty = "";
        assert!(validate_exposition(empty)
            .unwrap_err()
            .contains("no samples"));
    }

    #[test]
    fn label_values_with_commas_and_quotes_survive() {
        let mut reg = MetricsRegistry::new();
        reg.counter("q_total", "By query.", &[("query", "a,\"b\"")], 1.0);
        let text = reg.render();
        assert!(text.contains("q_total{query=\"a,\\\"b\\\"\"} 1"));
        assert_eq!(validate_exposition(&text).unwrap(), 1);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(format_float(3.0), "3");
        assert_eq!(format_float(3.5), "3.5");
        assert_eq!(format_float(f64::INFINITY), "+Inf");
        assert_eq!(format_float(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn conflicting_kinds_panic() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a", "h", &[], 1.0);
        reg.gauge("a", "h", &[], 1.0);
    }
}
