//! Plain-text application specifications.
//!
//! A deliberately small line-based format (the workspace avoids
//! serialization dependencies). Example:
//!
//! ```text
//! # MPEG-4 macroblock pipeline
//! system encoder
//! quality 0..7
//! action Grab_Macro_Block const 12000 24000
//! action Motion_Estimate levels 215:1000 30000:100000 50000:200000 \
//!         95000:350000 110000:500000 120000:1200000 150000:1200000 200000:1500000
//! edge Grab_Macro_Block Motion_Estimate
//! iterations 99
//! deadline per-iteration
//! budget 20000000
//! ```
//!
//! (Line continuations are not supported; the `action ... levels` line
//! lists one `avg:wc` pair per quality level, space-separated.)

use std::error::Error;
use std::fmt;

use fgqos_sched::DeadlineShape;

/// Execution-time declaration for one action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimesSpec {
    /// Quality-independent `(avg, wc)`.
    Constant(u64, u64),
    /// One `(avg, wc)` pair per quality level, ascending.
    Levels(Vec<(u64, u64)>),
}

/// A parsed application specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolSpec {
    /// System name.
    pub name: String,
    /// Quality levels `lo..=hi`.
    pub quality: (u8, u8),
    /// Actions `(name, times)`, in declaration order (= dense ids).
    pub actions: Vec<(String, TimesSpec)>,
    /// Direct precedence edges by action name.
    pub edges: Vec<(String, String)>,
    /// Body iterations per cycle (`N`).
    pub iterations: usize,
    /// Deadline decomposition (`deadline per-iteration | final-only`).
    pub deadline: DeadlineShape,
    /// Cycle budget in cycles.
    pub budget: u64,
}

/// Parse errors with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line of the offending input (0 for document-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec error: {}", self.message)
        } else {
            write!(f, "spec error at line {}: {}", self.line, self.message)
        }
    }
}

impl Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

/// Passes a parsed cycle count through unless it is `u64::MAX`, which
/// [`fgqos_time::Cycles`] reserves for an unbounded time.
fn finite(line: usize, cycles: u64) -> Result<u64, SpecError> {
    if cycles == u64::MAX {
        Err(err(
            line,
            format!("cycle count {cycles} is reserved for an unbounded time"),
        ))
    } else {
        Ok(cycles)
    }
}

impl ToolSpec {
    /// Parses a spec document.
    ///
    /// # Errors
    ///
    /// [`SpecError`] with the offending line on malformed input.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        let mut name = None;
        let mut quality = None;
        let mut actions: Vec<(String, TimesSpec)> = Vec::new();
        let mut edges = Vec::new();
        let mut iterations = 1usize;
        let mut deadline = DeadlineShape::PerIteration;
        let mut budget = None;

        for (idx, raw) in input.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let keyword = words.next().expect("non-empty line has a word");
            match keyword {
                "system" => {
                    let n = words
                        .next()
                        .ok_or_else(|| err(line_no, "missing system name"))?;
                    name = Some(n.to_owned());
                }
                "quality" => {
                    let range = words
                        .next()
                        .ok_or_else(|| err(line_no, "missing quality range"))?;
                    let (lo, hi) = range
                        .split_once("..")
                        .ok_or_else(|| err(line_no, "quality range must be lo..hi"))?;
                    let lo: u8 = lo
                        .parse()
                        .map_err(|_| err(line_no, "bad quality lower bound"))?;
                    let hi: u8 = hi
                        .parse()
                        .map_err(|_| err(line_no, "bad quality upper bound"))?;
                    if lo > hi {
                        return Err(err(line_no, "quality range is empty"));
                    }
                    quality = Some((lo, hi));
                }
                "action" => {
                    let action_name = words
                        .next()
                        .ok_or_else(|| err(line_no, "missing action name"))?
                        .to_owned();
                    if actions.iter().any(|(n, _)| *n == action_name) {
                        return Err(err(line_no, format!("duplicate action {action_name}")));
                    }
                    let kind = words
                        .next()
                        .ok_or_else(|| err(line_no, "missing times kind"))?;
                    let times = match kind {
                        "const" => {
                            let avg: u64 = words
                                .next()
                                .and_then(|w| w.parse().ok())
                                .ok_or_else(|| err(line_no, "const needs avg"))?;
                            let wc: u64 = words
                                .next()
                                .and_then(|w| w.parse().ok())
                                .ok_or_else(|| err(line_no, "const needs wc"))?;
                            TimesSpec::Constant(finite(line_no, avg)?, finite(line_no, wc)?)
                        }
                        "levels" => {
                            let mut pairs = Vec::new();
                            for w in words.by_ref() {
                                let (a, c) = w
                                    .split_once(':')
                                    .ok_or_else(|| err(line_no, "levels entries are avg:wc"))?;
                                let avg: u64 =
                                    a.parse().map_err(|_| err(line_no, "bad avg value"))?;
                                let wc: u64 =
                                    c.parse().map_err(|_| err(line_no, "bad wc value"))?;
                                pairs.push((finite(line_no, avg)?, finite(line_no, wc)?));
                            }
                            if pairs.is_empty() {
                                return Err(err(line_no, "levels needs at least one pair"));
                            }
                            TimesSpec::Levels(pairs)
                        }
                        other => return Err(err(line_no, format!("unknown times kind {other}"))),
                    };
                    actions.push((action_name, times));
                }
                "edge" => {
                    let from = words
                        .next()
                        .ok_or_else(|| err(line_no, "edge needs two names"))?;
                    let to = words
                        .next()
                        .ok_or_else(|| err(line_no, "edge needs two names"))?;
                    edges.push((from.to_owned(), to.to_owned()));
                }
                "iterations" => {
                    iterations = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| err(line_no, "iterations needs a positive integer"))?;
                }
                "deadline" => {
                    deadline = match words.next() {
                        Some("per-iteration") => DeadlineShape::PerIteration,
                        Some("final-only") => DeadlineShape::FinalOnly,
                        other => {
                            return Err(err(line_no, format!("unknown deadline shape {other:?}")))
                        }
                    };
                }
                "budget" => {
                    let cycles = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .filter(|&b| b > 0)
                        .ok_or_else(|| err(line_no, "budget needs a positive integer"))?;
                    budget = Some(finite(line_no, cycles)?);
                }
                other => return Err(err(line_no, format!("unknown keyword {other}"))),
            }
            if let Some(extra) = words.next() {
                return Err(err(line_no, format!("unexpected trailing token {extra}")));
            }
        }

        let name = name.ok_or_else(|| err(0, "missing 'system' line"))?;
        let quality = quality.ok_or_else(|| err(0, "missing 'quality' line"))?;
        if actions.is_empty() {
            return Err(err(0, "no actions declared"));
        }
        let budget = budget.ok_or_else(|| err(0, "missing 'budget' line"))?;
        let nq = usize::from(quality.1 - quality.0) + 1;
        for (n, times) in &actions {
            if let TimesSpec::Levels(pairs) = times {
                if pairs.len() != nq {
                    return Err(err(
                        0,
                        format!(
                            "action {n} declares {} levels, quality set has {nq}",
                            pairs.len()
                        ),
                    ));
                }
            }
        }
        for (from, to) in &edges {
            for endpoint in [from, to] {
                if !actions.iter().any(|(n, _)| n == endpoint) {
                    return Err(err(0, format!("edge references unknown action {endpoint}")));
                }
            }
        }
        Ok(ToolSpec {
            name,
            quality,
            actions,
            edges,
            iterations,
            deadline,
            budget,
        })
    }

    /// Emits the spec back in the textual format (parse ∘ emit =
    /// identity, tested).
    #[must_use]
    pub fn emit(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "system {}", self.name);
        let _ = writeln!(out, "quality {}..{}", self.quality.0, self.quality.1);
        for (name, times) in &self.actions {
            match times {
                TimesSpec::Constant(avg, wc) => {
                    let _ = writeln!(out, "action {name} const {avg} {wc}");
                }
                TimesSpec::Levels(pairs) => {
                    let _ = write!(out, "action {name} levels");
                    for (avg, wc) in pairs {
                        let _ = write!(out, " {avg}:{wc}");
                    }
                    out.push('\n');
                }
            }
        }
        for (from, to) in &self.edges {
            let _ = writeln!(out, "edge {from} {to}");
        }
        let _ = writeln!(out, "iterations {}", self.iterations);
        let shape = match self.deadline {
            DeadlineShape::PerIteration => "per-iteration",
            DeadlineShape::FinalOnly => "final-only",
        };
        let _ = writeln!(out, "deadline {shape}");
        let _ = writeln!(out, "budget {}", self.budget);
        out
    }

    /// The paper's encoder as a spec (Fig. 2 graph + Fig. 5 tables),
    /// with a configurable iteration count and budget.
    #[must_use]
    pub fn paper_encoder(iterations: usize, budget: u64) -> Self {
        use fgqos_time::fig5::{self, names};
        let mut actions: Vec<(String, TimesSpec)> = Vec::new();
        let order = [
            names::GRAB,
            names::MOTION_ESTIMATE,
            names::DCT,
            names::QUANTIZE,
            names::INTRA_PREDICT,
            names::COMPRESS,
            names::INVERSE_QUANTIZE,
            names::IDCT,
            names::RECONSTRUCT,
        ];
        for n in order {
            if n == names::MOTION_ESTIMATE {
                actions.push((
                    n.to_owned(),
                    TimesSpec::Levels(fig5::MOTION_ESTIMATE_TIMES.to_vec()),
                ));
            } else {
                let (_, avg, wc) = fig5::FIXED_ACTION_TIMES
                    .iter()
                    .find(|&&(fname, _, _)| fname == n)
                    .expect("fig5 covers the pipeline");
                actions.push((n.to_owned(), TimesSpec::Constant(*avg, *wc)));
            }
        }
        let e = |a: &str, b: &str| (a.to_owned(), b.to_owned());
        let edges = vec![
            e(names::GRAB, names::MOTION_ESTIMATE),
            e(names::MOTION_ESTIMATE, names::DCT),
            e(names::GRAB, names::INTRA_PREDICT),
            e(names::INTRA_PREDICT, names::DCT),
            e(names::DCT, names::QUANTIZE),
            e(names::QUANTIZE, names::COMPRESS),
            e(names::QUANTIZE, names::INVERSE_QUANTIZE),
            e(names::INVERSE_QUANTIZE, names::IDCT),
            e(names::IDCT, names::RECONSTRUCT),
        ];
        ToolSpec {
            name: "mpeg4-encoder".to_owned(),
            quality: (0, 7),
            actions,
            edges,
            iterations,
            deadline: DeadlineShape::PerIteration,
            budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# demo
system demo
quality 0..1
action a const 10 20
action b levels 5:9 7:14
edge a b
iterations 3
deadline final-only
budget 1000
";

    #[test]
    fn parses_sample() {
        let s = ToolSpec::parse(SAMPLE).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.quality, (0, 1));
        assert_eq!(s.actions.len(), 2);
        assert_eq!(s.actions[0].1, TimesSpec::Constant(10, 20));
        assert_eq!(s.actions[1].1, TimesSpec::Levels(vec![(5, 9), (7, 14)]));
        assert_eq!(s.edges, vec![("a".to_owned(), "b".to_owned())]);
        assert_eq!(s.iterations, 3);
        assert_eq!(s.deadline, DeadlineShape::FinalOnly);
        assert_eq!(s.budget, 1000);
    }

    #[test]
    fn emit_parse_roundtrip() {
        let s = ToolSpec::parse(SAMPLE).unwrap();
        let emitted = s.emit();
        let reparsed = ToolSpec::parse(&emitted).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn paper_encoder_spec_roundtrips() {
        let s = ToolSpec::paper_encoder(99, 20_000_000);
        let reparsed = ToolSpec::parse(&s.emit()).unwrap();
        assert_eq!(s, reparsed);
        assert_eq!(s.actions.len(), 9);
        assert_eq!(s.edges.len(), 9);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "system x\nquality 0..1\naction a const ten 20\nbudget 5";
        let e = ToolSpec::parse(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn the_unbounded_cycle_count_is_rejected_with_its_line() {
        let max = u64::MAX;
        for (line, bad) in [
            (
                4,
                format!("system x\nquality 0..0\naction a const 1 2\nbudget {max}"),
            ),
            (
                3,
                format!("system x\nquality 0..0\naction a const 1 {max}\nbudget 5"),
            ),
            (
                3,
                format!("system x\nquality 0..1\naction a levels 1:2 {max}:{max}\nbudget 5"),
            ),
        ] {
            let e = ToolSpec::parse(&bad).unwrap_err();
            assert_eq!(e.line, line, "{bad}");
            assert!(e.message.contains("unbounded"), "{e}");
        }
        // One below is an ordinary (huge) count.
        let ok = format!(
            "system x\nquality 0..0\naction a const 1 2\nbudget {}",
            max - 1
        );
        assert_eq!(ToolSpec::parse(&ok).unwrap().budget, max - 1);
    }

    #[test]
    fn rejects_structural_problems() {
        // Wrong level count.
        let bad = "system x\nquality 0..2\naction a levels 1:2 3:4\nbudget 5";
        assert!(ToolSpec::parse(bad).unwrap_err().message.contains("levels"));
        // Unknown edge endpoint.
        let bad = "system x\nquality 0..0\naction a const 1 2\nedge a ghost\nbudget 5";
        assert!(ToolSpec::parse(bad).unwrap_err().message.contains("ghost"));
        // Duplicate action.
        let bad = "system x\nquality 0..0\naction a const 1 2\naction a const 1 2\nbudget 5";
        assert!(ToolSpec::parse(bad)
            .unwrap_err()
            .message
            .contains("duplicate"));
        // Missing budget.
        let bad = "system x\nquality 0..0\naction a const 1 2";
        assert!(ToolSpec::parse(bad).unwrap_err().message.contains("budget"));
        // Trailing garbage.
        let bad = "system x y\nquality 0..0\naction a const 1 2\nbudget 5";
        assert!(ToolSpec::parse(bad)
            .unwrap_err()
            .message
            .contains("trailing"));
        // Empty quality range.
        let bad = "system x\nquality 3..1\naction a const 1 2\nbudget 5";
        assert!(ToolSpec::parse(bad).unwrap_err().message.contains("empty"));
    }
}
