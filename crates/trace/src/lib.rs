//! `tempo-trace` — post-run analysis of the lifecycle traces recorded by
//! [`tempo_kernel::trace`] (DESIGN.md §10).
//!
//! The kernel side is deliberately minimal (a ring buffer of `Copy` events); everything
//! that allocates or formats lives here, off the hot path:
//!
//! * [`PhaseBreakdown`] folds event pairs into per-phase [`LogHistogram`]s
//!   (submit→commit, commit→stable, stable→execute, execute→reply), turning "p99 is
//!   4.6 ms" into "3.9 ms of it is the stability wait", [`merge_and_fold`] turns a
//!   scheduler's per-process rings into one sorted log and its fold, and
//!   [`at_coordinator`] gives the same two intervals as the command's own coordinator
//!   saw them;
//! * [`ChromeTrace`] renders a merged [`TraceLog`] as Chrome trace-event JSON
//!   (`chrome://tracing` / Perfetto-loadable): one track per process, a span per
//!   command lifecycle, nemesis/detector events overlaid as instants;
//! * [`MetricsRegistry`] holds named counter time series sampled periodically by the
//!   embedding scheduler (protocol counters, transport counters, detector stats), so
//!   saturation and fault windows are visible over time rather than as run totals.
//!
//! Everything here is deterministic given a deterministic input log: maps are B-trees,
//! events are processed in timestamp order, and no wall clock is consulted — a
//! simulator trace therefore renders byte-identically across same-seed runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use tempo_kernel::id::{ProcessId, Rifl};
use tempo_kernel::metrics::{LatencySummary, LogHistogram};
use tempo_kernel::trace::{CmdPhase, ProcEvent, TraceEvent, TraceLog};

/// All lifecycle phases, in causal order (indexes into [`PhaseBreakdown`]'s per-command
/// first-occurrence table).
const ALL_PHASES: [CmdPhase; 7] = [
    CmdPhase::Submitted,
    CmdPhase::PayloadDelivered,
    CmdPhase::Proposed,
    CmdPhase::Committed,
    CmdPhase::Stable,
    CmdPhase::Executed,
    CmdPhase::Replied,
];

fn phase_index(phase: CmdPhase) -> usize {
    ALL_PHASES
        .iter()
        .position(|p| *p == phase)
        .expect("every phase is listed")
}

/// The adjacent phase pairs folded into latency histograms, as
/// `(json-safe name, from, to)`.
pub const PHASE_PAIRS: [(&str, CmdPhase, CmdPhase); 5] = [
    ("submit_commit", CmdPhase::Submitted, CmdPhase::Committed),
    ("commit_stable", CmdPhase::Committed, CmdPhase::Stable),
    ("stable_execute", CmdPhase::Stable, CmdPhase::Executed),
    ("execute_reply", CmdPhase::Executed, CmdPhase::Replied),
    ("submit_reply", CmdPhase::Submitted, CmdPhase::Replied),
];

/// Folds trace logs into per-phase latency histograms.
///
/// For every command (keyed by [`Rifl`]) the *earliest* observation of each phase is
/// kept — phases like `Committed` happen at several processes; the first commit anywhere
/// is what gates client latency. Because the fold takes a minimum per `(rifl, phase)`,
/// the result is independent of the order per-process logs are merged in.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    firsts: BTreeMap<Rifl, [Option<u64>; ALL_PHASES.len()]>,
    dropped: u64,
}

impl PhaseBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one log's phase events in (process events are ignored here).
    pub fn record_log(&mut self, log: &TraceLog) {
        self.dropped += log.dropped;
        for event in &log.events {
            if let TraceEvent::Phase {
                at_us, rifl, phase, ..
            } = event
            {
                let slot = &mut self.firsts.entry(*rifl).or_default()[phase_index(*phase)];
                *slot = Some(slot.map_or(*at_us, |t| t.min(*at_us)));
            }
        }
    }

    /// Produces the per-phase histograms from everything folded so far.
    pub fn finish(&self) -> PhaseLatencies {
        let mut pairs: Vec<PhasePair> = PHASE_PAIRS
            .iter()
            .map(|(name, from, to)| PhasePair {
                name,
                from: *from,
                to: *to,
                histogram: LogHistogram::new(),
            })
            .collect();
        let mut complete = 0u64;
        for firsts in self.firsts.values() {
            let mut all = true;
            for pair in pairs.iter_mut() {
                match (firsts[phase_index(pair.from)], firsts[phase_index(pair.to)]) {
                    (Some(from), Some(to)) => pair.histogram.record(to.saturating_sub(from)),
                    _ => all = false,
                }
            }
            if all {
                complete += 1;
            }
        }
        PhaseLatencies {
            commands: self.firsts.len() as u64,
            complete,
            dropped: self.dropped,
            pairs,
        }
    }
}

/// Merges per-process logs, in the order given, into one time-sorted log and folds
/// its phases — how a scheduler turns its rings into a run's trace and breakdown. The
/// sort is stable, so same-instant events keep merge order and a simulated run's log
/// is byte-identical across same-seed runs.
pub fn merge_and_fold(logs: Vec<TraceLog>) -> (TraceLog, PhaseLatencies) {
    let mut log = TraceLog::default();
    for other in logs {
        log.merge(other);
    }
    log.sort_by_time();
    let mut fold = PhaseBreakdown::new();
    fold.record_log(&log);
    let phases = fold.finish();
    (log, phases)
}

/// Per command, what its *coordinator* saw — the process that recorded `Submitted` — as
/// `(coordinator, submit→commit, commit→stable)` in microseconds, for every command
/// with all three events there. [`PhaseBreakdown`] answers "when did this happen
/// anywhere first"; this answers "how long did the replica the client is watching
/// wait", which is what separates one site's stability wait from another's
/// (DESIGN.md §12).
pub fn at_coordinator(log: &TraceLog) -> Vec<(ProcessId, u64, u64)> {
    let mut seen = BTreeMap::new();
    for event in &log.events {
        if let TraceEvent::Phase {
            at_us,
            process,
            rifl,
            phase,
        } = event
        {
            seen.entry((*rifl, *process, *phase)).or_insert(*at_us);
        }
    }
    let mut out = Vec::new();
    for ((rifl, coordinator, phase), submitted) in &seen {
        if *phase != CmdPhase::Submitted {
            continue;
        }
        let at = |phase| seen.get(&(*rifl, *coordinator, phase));
        if let (Some(committed), Some(stable)) = (at(CmdPhase::Committed), at(CmdPhase::Stable)) {
            out.push((
                *coordinator,
                committed.saturating_sub(*submitted),
                stable.saturating_sub(*committed),
            ));
        }
    }
    out
}

/// One folded phase interval.
#[derive(Debug, Clone)]
pub struct PhasePair {
    /// JSON-safe interval name (e.g. `submit_commit`).
    pub name: &'static str,
    /// Start phase.
    pub from: CmdPhase,
    /// End phase.
    pub to: CmdPhase,
    /// Latencies of the interval across all commands that reached both phases.
    pub histogram: LogHistogram,
}

/// The result of a [`PhaseBreakdown`] fold.
#[derive(Debug, Clone)]
pub struct PhaseLatencies {
    /// Distinct commands observed in the logs.
    pub commands: u64,
    /// Commands for which every folded interval was observed.
    pub complete: u64,
    /// Ring-buffer overwrites across the folded logs (non-zero means the earliest
    /// events of a long run are missing).
    pub dropped: u64,
    /// One entry per [`PHASE_PAIRS`] interval, in that order.
    pub pairs: Vec<PhasePair>,
}

impl PhaseLatencies {
    /// The histogram of one interval by name, if it exists.
    pub fn pair(&self, name: &str) -> Option<&PhasePair> {
        self.pairs.iter().find(|p| p.name == name)
    }

    /// Per-interval summaries as `(name, summary)` (skipping empty intervals).
    pub fn summaries(&self) -> Vec<(&'static str, LatencySummary)> {
        self.pairs
            .iter()
            .filter(|p| !p.histogram.is_empty())
            .map(|p| (p.name, p.histogram.summary()))
            .collect()
    }

    /// A compact human-readable breakdown line, e.g.
    /// `phases: submit_commit p99=1.2ms | commit_stable p99=3.9ms | ...`.
    pub fn summary_line(&self) -> String {
        let mut line = String::from("phases:");
        for pair in &self.pairs {
            if pair.histogram.is_empty() {
                continue;
            }
            let s = pair.histogram.summary();
            let _ = write!(
                line,
                " {} mean={:.1}ms p99={:.1}ms |",
                pair.name, s.mean_ms, s.p99_ms
            );
        }
        if line.ends_with('|') {
            line.pop();
            line.pop();
        }
        if self.dropped > 0 {
            let _ = write!(line, " (dropped={})", self.dropped);
        }
        line
    }
}

// --------------------------------------------------------------------- JSON helpers

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

// ------------------------------------------------------------------ chrome export

/// Builds Chrome trace-event JSON (the `traceEvents` array format understood by
/// `chrome://tracing` and Perfetto) from merged [`TraceLog`]s.
///
/// Layout: a single trace process (`pid` 0) with one thread (track) per Tempo process;
/// each command lifecycle becomes a complete ("X") span on the track of the process
/// that observed its submission, phase observations and process-level events
/// (crash/restart/suspect/recovery) become instant ("i") events, and
/// [`MetricsRegistry`] series become counter ("C") events. Output is deterministic:
/// events are sorted by `(timestamp, track, kind)` and all grouping uses B-trees.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    log: TraceLog,
    names: BTreeMap<ProcessId, String>,
    counters: Vec<(String, Vec<(u64, u64)>)>,
}

impl ChromeTrace {
    /// Creates an empty export.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges one drained log into the export.
    pub fn add_log(&mut self, log: TraceLog) {
        self.log.merge(log);
    }

    /// Labels a process's track (e.g. `replica 3 (eu-west-1)`); unlabelled tracks show
    /// as `process <id>`.
    pub fn name_process(&mut self, process: ProcessId, name: impl Into<String>) {
        self.names.insert(process, name.into());
    }

    /// Adds every series of a [`MetricsRegistry`] as counter tracks.
    pub fn add_registry(&mut self, registry: &MetricsRegistry) {
        for (name, samples) in registry.iter() {
            self.counters.push((name.to_string(), samples.to_vec()));
        }
    }

    /// Renders the export. The result is a complete JSON document:
    /// `{"traceEvents": [...]}`.
    pub fn render(&self) -> String {
        let mut log = self.log.clone();
        log.sort_by_time();

        // Collect per-command phase observations (earliest per phase) to build spans.
        let mut breakdown = PhaseBreakdown::new();
        breakdown.record_log(&log);

        let mut events: Vec<String> = Vec::new();

        // Track-name metadata, one per process seen in the log (sorted by id).
        let mut tracks: BTreeMap<ProcessId, ()> = BTreeMap::new();
        for event in &log.events {
            tracks.insert(event.process(), ());
        }
        for process in tracks.keys() {
            let mut name = String::new();
            match self.names.get(process) {
                Some(label) => escape_json(label, &mut name),
                None => {
                    let _ = write!(name, "process {process}");
                }
            }
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{process},\"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }

        // Command lifecycle spans: submitted → replied (or the last phase observed).
        for (rifl, firsts) in &breakdown.firsts {
            let Some(start) = firsts[phase_index(CmdPhase::Submitted)] else {
                continue;
            };
            let end = firsts
                .iter()
                .flatten()
                .copied()
                .max()
                .expect("submitted is present");
            // The span lives on the submitting process's track.
            let tid = log
                .events
                .iter()
                .find_map(|e| match e {
                    TraceEvent::Phase {
                        process,
                        rifl: r,
                        phase: CmdPhase::Submitted,
                        ..
                    } if r == rifl => Some(*process),
                    _ => None,
                })
                .unwrap_or(0);
            events.push(format!(
                "{{\"name\":\"cmd c{}#{}\",\"cat\":\"cmd\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{start},\"dur\":{}}}",
                rifl.client,
                rifl.seq,
                end.saturating_sub(start).max(1)
            ));
        }

        // Phase observations and process-level events as instants.
        for event in &log.events {
            match event {
                TraceEvent::Phase {
                    at_us,
                    process,
                    rifl,
                    phase,
                } => {
                    events.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{process},\"ts\":{at_us},\"args\":{{\"cmd\":\"c{}#{}\"}}}}",
                        phase.name(),
                        rifl.client,
                        rifl.seq
                    ));
                }
                TraceEvent::Process {
                    at_us,
                    process,
                    event,
                } => {
                    let subject = match event {
                        ProcEvent::Suspect(p)
                        | ProcEvent::Unsuspect(p)
                        | ProcEvent::Crash(p)
                        | ProcEvent::Restart(p) => Some(*p),
                        _ => None,
                    };
                    let args = match subject {
                        Some(p) => format!("{{\"subject\":{p}}}"),
                        None => String::from("{}"),
                    };
                    events.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{process},\"ts\":{at_us},\"args\":{args}}}",
                        event.name()
                    ));
                }
            }
        }

        // Counter tracks from the registry.
        for (name, samples) in &self.counters {
            let mut escaped = String::new();
            escape_json(name, &mut escaped);
            for (at_us, value) in samples {
                events.push(format!(
                    "{{\"name\":\"{escaped}\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":0,\"ts\":{at_us},\"args\":{{\"value\":{value}}}}}"
                ));
            }
        }

        let mut out = String::from("{\"traceEvents\":[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(event);
        }
        out.push_str("\n]}\n");
        out
    }
}

// --------------------------------------------------------------- metrics registry

/// Named counter time series, periodically sampled by the embedding scheduler.
///
/// The registry itself is passive: the scheduler calls [`MetricsRegistry::sample`] at
/// whatever cadence it owns (a simulated-time event in `tempo-sim`, the supervisor tick
/// in `tempo-runtime`) with the counters it wants tracked — protocol counters, transport
/// counters, detector stats, store counters. Series and sample order are deterministic
/// (B-tree keyed by name, samples appended in call order).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    series: BTreeMap<String, Vec<(u64, u64)>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one `(at_us, value)` sample to the named series (creating it on first
    /// use).
    pub fn sample(&mut self, name: &str, at_us: u64, value: u64) {
        match self.series.get_mut(name) {
            Some(samples) => samples.push((at_us, value)),
            None => {
                self.series.insert(name.to_string(), vec![(at_us, value)]);
            }
        }
    }

    /// Appends samples for several series at the same instant.
    pub fn sample_all<'a>(&mut self, at_us: u64, values: impl IntoIterator<Item = (&'a str, u64)>) {
        for (name, value) in values {
            self.sample(name, at_us, value);
        }
    }

    /// The samples of one series, oldest first (empty if the series does not exist).
    pub fn series(&self, name: &str) -> &[(u64, u64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates `(name, samples)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[(u64, u64)])> {
        self.series.iter().map(|(n, s)| (n.as_str(), s.as_slice()))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether no series was ever sampled.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Merges another registry into this one (series with the same name are
    /// concatenated then re-sorted by time).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, samples) in &other.series {
            let mine = self.series.entry(name.clone()).or_default();
            mine.extend_from_slice(samples);
            mine.sort_by_key(|(at, _)| *at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::trace::Tracer;

    fn phase(at_us: u64, process: ProcessId, rifl: Rifl, phase: CmdPhase) -> TraceEvent {
        TraceEvent::Phase {
            at_us,
            process,
            rifl,
            phase,
        }
    }

    fn full_lifecycle(rifl: Rifl, base_us: u64) -> Vec<TraceEvent> {
        vec![
            phase(base_us, 0, rifl, CmdPhase::Submitted),
            phase(base_us + 100, 1, rifl, CmdPhase::PayloadDelivered),
            phase(base_us + 150, 1, rifl, CmdPhase::Proposed),
            phase(base_us + 300, 0, rifl, CmdPhase::Committed),
            phase(base_us + 700, 0, rifl, CmdPhase::Stable),
            phase(base_us + 750, 0, rifl, CmdPhase::Executed),
            phase(base_us + 800, 0, rifl, CmdPhase::Replied),
        ]
    }

    #[test]
    fn breakdown_folds_phase_pairs() {
        let log = TraceLog {
            events: full_lifecycle(Rifl::new(1, 1), 1_000),
            ..TraceLog::default()
        };
        let mut breakdown = PhaseBreakdown::new();
        breakdown.record_log(&log);
        let lat = breakdown.finish();
        assert_eq!(lat.commands, 1);
        assert_eq!(lat.complete, 1);
        assert_eq!(lat.dropped, 0);
        let commit = lat.pair("submit_commit").unwrap();
        assert_eq!(commit.histogram.len(), 1);
        assert_eq!(commit.histogram.max_us(), 300);
        assert_eq!(lat.pair("commit_stable").unwrap().histogram.max_us(), 400);
        assert_eq!(lat.pair("stable_execute").unwrap().histogram.max_us(), 50);
        assert_eq!(lat.pair("execute_reply").unwrap().histogram.max_us(), 50);
        assert_eq!(lat.pair("submit_reply").unwrap().histogram.max_us(), 800);
        assert!(lat.summary_line().contains("submit_commit"));
    }

    #[test]
    fn breakdown_takes_earliest_observation_per_phase() {
        let rifl = Rifl::new(1, 1);
        let log = TraceLog {
            events: vec![
                phase(0, 0, rifl, CmdPhase::Submitted),
                // Commit observed at three processes; the earliest (250) counts.
                phase(400, 2, rifl, CmdPhase::Committed),
                phase(250, 0, rifl, CmdPhase::Committed),
                phase(900, 1, rifl, CmdPhase::Committed),
            ],
            ..TraceLog::default()
        };
        let mut breakdown = PhaseBreakdown::new();
        breakdown.record_log(&log);
        let lat = breakdown.finish();
        assert_eq!(lat.pair("submit_commit").unwrap().histogram.max_us(), 250);
        // No stable/executed/replied events: the chain is incomplete.
        assert_eq!(lat.complete, 0);
        assert!(lat.pair("commit_stable").unwrap().histogram.is_empty());
    }

    #[test]
    fn at_coordinator_ignores_earlier_observations_elsewhere() {
        let rifl = Rifl::new(1, 1);
        let log = TraceLog {
            events: vec![
                phase(0, 0, rifl, CmdPhase::Submitted),
                phase(300, 0, rifl, CmdPhase::Committed),
                // Stable at a peer first; the coordinator waits until 900.
                phase(400, 1, rifl, CmdPhase::Committed),
                phase(500, 1, rifl, CmdPhase::Stable),
                phase(900, 0, rifl, CmdPhase::Stable),
                // A command still waiting at its coordinator is left out.
                phase(50, 2, Rifl::new(2, 1), CmdPhase::Submitted),
                phase(350, 2, Rifl::new(2, 1), CmdPhase::Committed),
            ],
            ..TraceLog::default()
        };
        assert_eq!(at_coordinator(&log), vec![(0, 300, 600)]);
    }

    #[test]
    fn breakdown_is_merge_order_independent() {
        let rifl = Rifl::new(3, 9);
        let events = full_lifecycle(rifl, 5_000);
        let mut forward = PhaseBreakdown::new();
        let mut backward = PhaseBreakdown::new();
        let log_fwd = TraceLog {
            events: events.clone(),
            ..TraceLog::default()
        };
        let log_bwd = TraceLog {
            events: events.into_iter().rev().collect(),
            ..TraceLog::default()
        };
        forward.record_log(&log_fwd);
        backward.record_log(&log_bwd);
        let a = forward.finish();
        let b = backward.finish();
        for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
            assert_eq!(pa.histogram.max_us(), pb.histogram.max_us());
        }
    }

    #[test]
    fn chrome_trace_renders_spans_instants_and_counters() {
        let tracer = Tracer::with_capacity(64);
        for event in full_lifecycle(Rifl::new(7, 1), 100) {
            tracer.record(event);
        }
        tracer.process_event(500, 2, ProcEvent::Crash(2));
        tracer.process_event(600, 0, ProcEvent::Suspect(2));

        let mut registry = MetricsRegistry::new();
        registry.sample("committed", 100, 0);
        registry.sample("committed", 200, 1);

        let mut export = ChromeTrace::new();
        export.add_log(tracer.take());
        export.name_process(0, "replica 0 (eu-west-1)");
        export.add_registry(&registry);
        let json = export.render();

        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""), "lifecycle span present");
        assert!(json.contains("cmd c7#1"));
        assert!(json.contains("\"name\":\"crash\""));
        assert!(json.contains("\"name\":\"suspect\""));
        assert!(json.contains("\"ph\":\"C\""), "counter events present");
        assert!(json.contains("replica 0 (eu-west-1)"));
        // Deterministic: rendering twice yields identical bytes.
        assert_eq!(json, export.render());
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        // A paren/quote balance check catches malformed hand-rolled JSON without a
        // parser dependency.
        let tracer = Tracer::with_capacity(16);
        for event in full_lifecycle(Rifl::new(1, 2), 0) {
            tracer.record(event);
        }
        let mut export = ChromeTrace::new();
        export.add_log(tracer.take());
        let json = export.render();
        let mut depth = 0i64;
        let mut in_string = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_string);
    }

    #[test]
    fn registry_series_and_merge() {
        let mut a = MetricsRegistry::new();
        a.sample_all(10, [("x", 1), ("y", 5)]);
        a.sample("x", 20, 2);
        assert_eq!(a.series("x"), &[(10, 1), (20, 2)]);
        assert_eq!(a.series("missing"), &[] as &[(u64, u64)]);
        assert_eq!(a.len(), 2);

        let mut b = MetricsRegistry::new();
        b.sample("x", 15, 9);
        a.merge(&b);
        assert_eq!(a.series("x"), &[(10, 1), (15, 9), (20, 2)]);
    }
}
