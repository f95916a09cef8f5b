//! Harness spans: one per call into a layer, recorded from outside the
//! library, kept in memory and written when the run ends.

use crate::json::Json;
use std::time::Instant;

struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
    block: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Spans {
        Spans {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            block: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        (r, self.duration(id))
    }

    /// Seconds a closed span lasted.
    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// A span measured elsewhere (inside the rank threads of block
    /// `block`); returns its id so the block's parts can name it as parent.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        block: usize,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start: start.duration_since(self.origin).as_secs_f64(),
            end: end.duration_since(self.origin).as_secs_f64(),
            parent,
            block: Some(block),
        });
        self.spans.len() - 1
    }

    /// Self time of a span: its duration minus the part its children cover.
    fn self_s(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end - c.start)
            .sum();
        (s.end - s.start - children).max(0.0)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            (0..self.spans.len())
                .map(|id| {
                    let s = &self.spans[id];
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(&s.name)),
                        ("workload", Json::str(self.workload)),
                        ("block", s.block.map_or(Json::Null, |b| Json::Num(b as f64))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_s", Json::num(s.start)),
                        ("end_s", Json::num(s.end)),
                        ("self_s", Json::num(self.self_s(id))),
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
    fn self_time_excludes_children() {
        let mut s = Spans::new("w");
        let outer = s.enter("outer");
        let (_, inner) = s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.exit(outer);
        let j = s.to_json();
        let spans = j.as_arr().unwrap();
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        let total = spans[0].get("end_s").unwrap().as_f64().unwrap()
            - spans[0].get("start_s").unwrap().as_f64().unwrap();
        let own = spans[0].get("self_s").unwrap().as_f64().unwrap();
        assert!(inner >= 0.005 && (total - inner - own).abs() < 1e-9);
    }
}
