//! In-memory spans, written out once when the traced pass ends.
//!
//! A span is `{id, name, request_id, start_ns, end_ns, parent, counters}`.
//! Spans of one request (or one ladder batch) share `request_id`; a span's
//! self time is its duration minus the durations of its children.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub request_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub counters: Vec<(&'static str, u64)>,
}

pub struct Trace {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the start of the trace to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        request_id: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
        counters: Vec<(&'static str, u64)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            name,
            request_id,
            start_ns,
            end_ns,
            parent,
            counters,
        });
        id
    }

    /// Takes over spans recorded elsewhere (the clients' own), giving
    /// them ids.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        for mut s in spans {
            s.id = self.spans.len() as u64 + 1;
            self.spans.push(s);
        }
    }

    /// Re-parents `child` under `parent` (the ladder measures the bottom
    /// rung first and learns each span's parent one rung later).
    pub fn set_parent(&mut self, child: u64, parent: u64) {
        self.spans[child as usize - 1].parent = Some(parent);
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Total self time per span name, in nanoseconds. Signed: a layer
    /// that makes the work below it cheaper than running that work alone
    /// (fusion, snapshot reads) has negative self time.
    pub fn self_ns_by_name(&self) -> HashMap<&'static str, i128> {
        let mut children: HashMap<u64, i128> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_insert(0) += i128::from(s.end_ns - s.start_ns);
            }
        }
        let mut out = HashMap::new();
        for s in &self.spans {
            let own = i128::from(s.end_ns - s.start_ns) - children.get(&s.id).copied().unwrap_or(0);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "  {{\"id\": {}, \"name\": \"{}\", \"request_id\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"counters\": {{{}}}}}{}",
                s.id,
                s.name,
                s.request_id,
                s.start_ns,
                s.end_ns,
                parent,
                counters.join(", "),
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Trace::new();
        let leaf = t.push("sql", 1, 10, 40, None, vec![]);
        let mid = t.push("net", 1, 100, 150, None, vec![]);
        let top = t.push("web", 1, 200, 260, None, vec![]);
        t.set_parent(leaf, mid);
        t.set_parent(mid, top);
        let own = t.self_ns_by_name();
        assert_eq!(own["sql"], 30);
        assert_eq!(own["net"], 20);
        assert_eq!(own["web"], 10);
        assert_eq!(
            own.values().sum::<i128>(),
            60,
            "self times sum to the top rung"
        );
    }
}
