//! Reading what the engine already emits: span events (the JSONL lines of
//! an `Obs` trace) and metric registries (Prometheus text), summed into
//! per-layer totals.

use std::collections::BTreeMap;

use als_obs::json::{self, Json};

/// One finished span, as the engine's trace sink renders it.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEv {
    /// Span name (`cuts`, `cpm`, `eval`, ...).
    pub name: String,
    /// Full `/`-joined path, e.g. `flow/iteration/phase2/round/cuts`.
    pub path: String,
    /// Span id, unique within one `Obs`.
    pub id: u64,
    /// Id of the enclosing span (0 for a root).
    pub parent: u64,
    /// Start offset in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Attached counts.
    pub counts: Vec<(String, u64)>,
}

impl SpanEv {
    /// Parses one trace line; `None` for anything but a span event.
    pub fn parse(line: &str) -> Option<SpanEv> {
        let v = json::parse(line).ok()?;
        if v.get("t").and_then(Json::as_str) != Some("span") {
            return None;
        }
        let num = |k: &str| v.get(k).and_then(Json::as_u64);
        let counts = match v.get("counts") {
            Some(Json::Obj(members)) => {
                members.iter().filter_map(|(k, c)| Some((k.clone(), c.as_u64()?))).collect()
            }
            _ => Vec::new(),
        };
        Some(SpanEv {
            name: v.get("name")?.as_str()?.to_string(),
            path: v.get("path")?.as_str()?.to_string(),
            id: num("id")?,
            parent: num("parent")?,
            start_ns: num("start_ns")?,
            dur_ns: num("dur_ns")?,
            counts,
        })
    }

    /// The attached count `key`, 0 when absent.
    pub fn count(&self, key: &str) -> u64 {
        self.counts.iter().filter(|(k, _)| k == key).map(|(_, v)| *v).sum()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Returned in input order.
pub fn self_times(events: &[SpanEv]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        if e.parent != 0 {
            children.entry(e.parent).or_default().push((e.start_ns, e.start_ns + e.dur_ns));
        }
    }
    events
        .iter()
        .map(|e| {
            let (lo, hi) = (e.start_ns, e.start_ns + e.dur_ns);
            let mut spans = children.get(&e.id).cloned().unwrap_or_default();
            spans.sort_unstable();
            let (mut covered, mut reach) = (0u64, lo);
            for (s, t) in spans {
                let (s, t) = (s.max(reach), t.min(hi));
                if t > s {
                    covered += t - s;
                    reach = t;
                }
            }
            e.dur_ns.saturating_sub(covered)
        })
        .collect()
}

/// Plain samples of a Prometheus text exposition, `name -> value`
/// (histogram `_sum`/`_count` included, bucket lines skipped).
pub fn parse_prom(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Per-layer totals summed over any number of runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers {
    /// Self seconds per span name.
    pub self_s: BTreeMap<String, f64>,
    /// Self seconds of `cuts` spans inside phase two.
    pub cuts_phase2_s: f64,
    /// Total seconds of `phase1` spans.
    pub phase1_s: f64,
    /// Total seconds of `phase2` spans.
    pub phase2_s: f64,
    /// LACs evaluated (`lacs` counts of the batch-evaluation spans).
    pub lacs: f64,
    /// Registry samples, summed.
    pub prom: BTreeMap<String, f64>,
    /// Trace bytes seen.
    pub trace_bytes: f64,
}

impl Layers {
    /// Adds one run's trace lines and registry text.
    pub fn absorb(&mut self, trace_lines: &[String], prom_text: &str) {
        let events: Vec<SpanEv> = trace_lines.iter().filter_map(|l| SpanEv::parse(l)).collect();
        self.trace_bytes += trace_lines.iter().map(|l| l.len() as f64 + 1.0).sum::<f64>();
        for (e, self_ns) in events.iter().zip(self_times(&events)) {
            let s = self_ns as f64 * 1e-9;
            *self.self_s.entry(e.name.clone()).or_default() += s;
            match e.name.as_str() {
                "cuts" if e.path.contains("/phase2/") => self.cuts_phase2_s += s,
                "phase1" => self.phase1_s += e.dur_ns as f64 * 1e-9,
                "phase2" => self.phase2_s += e.dur_ns as f64 * 1e-9,
                "eval" => self.lacs += e.count("lacs") as f64,
                _ => {}
            }
        }
        for (k, v) in parse_prom(prom_text) {
            *self.prom.entry(k).or_default() += v;
        }
    }

    /// Adds another set of totals into this one.
    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.self_s {
            *self.self_s.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.prom {
            *self.prom.entry(k.clone()).or_default() += v;
        }
        self.cuts_phase2_s += other.cuts_phase2_s;
        self.phase1_s += other.phase1_s;
        self.phase2_s += other.phase2_s;
        self.lacs += other.lacs;
        self.trace_bytes += other.trace_bytes;
    }

    /// Self seconds of spans named `name`.
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// A summed registry sample, 0 when never registered.
    pub fn prom(&self, name: &str) -> f64 {
        self.prom.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, parent: u64, start: u64, dur: u64) -> SpanEv {
        SpanEv {
            name: "x".into(),
            path: "x".into(),
            id,
            parent,
            start_ns: start,
            dur_ns: dur,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_children_it_covers() {
        // root 0..100 with children 10..30 and 25..50 (overlapping) and a
        // grandchild that must not count against the root.
        let events = vec![
            ev(1, 0, 0, 100),
            ev(2, 1, 10, 20),
            ev(3, 1, 25, 25),
            ev(4, 2, 12, 5),
            ev(5, 0, 200, 7),
        ];
        assert_eq!(self_times(&events), vec![60, 15, 25, 5, 7]);
    }

    #[test]
    fn child_time_outside_the_parent_is_ignored() {
        let events = vec![ev(1, 0, 100, 50), ev(2, 1, 90, 20), ev(3, 1, 140, 30)];
        assert_eq!(self_times(&events), vec![30, 20, 30]);
    }

    #[test]
    fn engine_trace_lines_parse_and_aggregate() {
        let lines = vec![
            r#"{"t":"span","name":"eval","path":"flow/iteration/phase1/eval","id":3,"parent":2,"thread":0,"start_ns":10,"dur_ns":40,"counts":{"lacs":7,"dedup_hits":2}}"#.to_string(),
            r#"{"t":"span","name":"cuts","path":"flow/iteration/phase2/round/cuts","id":5,"parent":4,"thread":0,"start_ns":60,"dur_ns":10}"#.to_string(),
            r#"{"t":"span","name":"phase1","path":"flow/iteration/phase1","id":2,"parent":1,"thread":0,"start_ns":0,"dur_ns":50}"#.to_string(),
        ];
        let mut layers = Layers::default();
        layers.absorb(&lines, "# TYPE a_total counter\na_total 4\nh_bucket{le=\"1\"} 1\nh_sum 9\n");
        assert_eq!(layers.lacs, 7.0);
        assert!((layers.self_of("eval") - 40e-9).abs() < 1e-15);
        assert!((layers.cuts_phase2_s - 10e-9).abs() < 1e-15);
        assert!((layers.self_of("phase1") - 10e-9).abs() < 1e-15, "phase1 minus its eval child");
        assert_eq!(layers.prom("a_total"), 4.0);
        assert_eq!(layers.prom("h_sum"), 9.0);
        assert_eq!(layers.prom("h_bucket"), 0.0);
    }
}
