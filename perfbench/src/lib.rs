//! The Zatel suite's benchmark: one command runs a workload against the
//! release build, measures it end to end (untraced) or layer by layer
//! (traced), and checks every output against an independent computation.
//!
//! Each layer is driven only through its public functions:
//! `Zatel::execute`/`run_reference`, the stage functions, and
//! `serve::Server` with `HttpClient`.

pub mod cells;
pub mod check;
pub mod heap;
pub mod passes;
pub mod replay;
pub mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minijson::{FromJson, Value};
use zatel::{ArtifactCache, Prediction};
use zatel_proto::{PredictResponse, SweepResponse};

use cells::{Cell, Op, Scale, Workload};
use check::{Digest, Tally};
use passes::Scenes;
use replay::{Fleet, Replay};
use trace::Tracer;

/// Set-ups per round; the last is kept and the others are dropped. Set-up
/// is cheap beside a round, so more samples of it cost little.
const SETUPS_PER_ROUND: usize = 3;
/// In-process passes per `serve` round. Its passes are short beside its
/// replay, so more of them give each cell more samples cheaply.
const SERVE_PASSES_PER_ROUND: usize = 3;
/// Closed-loop clients of the `serve` replay: the host's two CPUs.
const CLIENTS: usize = 2;
/// Requests of one `serve` round: every first-seen cell, then 48 dealt
/// from [`cells::serve_mix`]'s deck (each cell four times), among them
/// the three regression predicts and the sweep.
const SERVE_ROUND_OPS: usize = 60;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Workload seed; every input is generated from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Digest of the run's deterministic outputs.
    pub digest: String,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in full precision; non-finite values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples above it: the value
/// ranked eleventh from the top, at percentile `100 (n - 10) / n`. With
/// fewer than eleven samples there is no such percentile and the maximum
/// is reported instead. Returns `(value, percentile)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        1..=10 => (v[n - 1], 100.0),
        _ => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fastest tenth of `values`: the value ranked `ceil(n / 10)` from
/// the bottom, so the fastest sample when there are ten or fewer (0 for
/// none).
///
/// Every timing of the benchmark is reported this way, not as a median.
/// The shared host runs the same work at two speeds about 1.45 times apart
/// and switches between them every fraction of a second to tens of
/// seconds; a median over one run lands in either mode depending on how
/// much of the run was slow, while the fastest tenth stays in the fast
/// mode unless nine tenths of the run were slow. A slower program moves
/// both modes, and so this value.
pub fn low_decile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[n.div_ceil(10) - 1],
    }
}

/// The mirror of [`low_decile`] for rates: the value ranked
/// `ceil(n / 10)` from the top (0 for none).
pub fn high_decile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[n - n.div_ceil(10)],
    }
}

/// Scenes and a bound server, ready for the first timed operation.
struct Setup {
    scenes: Scenes,
    fleet: Fleet,
    /// How long the set-up took.
    seconds: f64,
}

/// Builds every cell's scene and binds a fresh server with its disk tier
/// under `dir`. With a tracer, each scene build is recorded as a span.
fn set_up(cells: &[Cell], dir: &Path, tracer: Option<&mut Tracer>) -> Result<Setup, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let t = Instant::now();
    let scenes = Scenes::build(cells, tracer);
    let fleet = Fleet::bind(dir)?;
    Ok(Setup {
        scenes,
        fleet,
        seconds: t.elapsed().as_secs_f64(),
    })
}

/// Cell indices sorted by label, so digests do not depend on the order
/// the workload seed drew.
fn canonical_order(cells: &[Cell]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| cells[i].label());
    order
}

/// Digest of a run's deterministic outputs: every prediction, then every
/// reference's statistics, in canonical cell order.
fn outputs_digest(cells: &[Cell], predictions: &[Prediction], refs: &[zatel::Reference]) -> String {
    let mut digest = Digest::default();
    for &i in &canonical_order(cells) {
        digest.prediction(&predictions[i]);
    }
    for &i in &canonical_order(cells) {
        if let Some(r) = refs.get(i) {
            digest.stats(&r.stats);
        }
    }
    digest.hex()
}

/// The cold predict pass over `cells`, each call's wall time pushed onto
/// its cell's entry of `times`.
fn timed_predicts(
    cells: &[Cell],
    scenes: &Scenes,
    times: &mut [Vec<f64>],
    tally: &mut Tally,
) -> Result<Vec<Prediction>, String> {
    let mut predictions = Vec::with_capacity(cells.len());
    for ((cell, (result, wall)), times) in cells
        .iter()
        .zip(passes::predict_pass(cells, scenes))
        .zip(times)
    {
        tally.attempt();
        predictions.push(result.map_err(|e| format!("predict {}: {e}", cell.label()))?);
        times.push(wall.as_secs_f64());
    }
    Ok(predictions)
}

/// The reference pass over `cells`, each call's wall time pushed onto its
/// cell's entry of `times`.
fn timed_references(
    cells: &[Cell],
    scenes: &Scenes,
    times: &mut [Vec<f64>],
    tally: &mut Tally,
) -> Vec<zatel::Reference> {
    passes::reference_pass(cells, scenes, None)
        .into_iter()
        .zip(times)
        .map(|((reference, wall), times)| {
            tally.attempt();
            times.push(wall.as_secs_f64());
            reference
        })
        .collect()
}

/// The deterministic part of a sweep response: each point's label,
/// factor and predicted metrics.
fn sweep_subset(points: &[Value]) -> String {
    let parts: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{}|{}|{}",
                p.get("label").map(Value::to_string).unwrap_or_default(),
                p.get("k").map(Value::to_string).unwrap_or_default(),
                p.get("prediction")
                    .map(Value::to_string)
                    .unwrap_or_default()
            )
        })
        .collect();
    parts.join("\n")
}

/// Expected deterministic subsets of served replies, by request kind,
/// computed once per run.
type Expected = BTreeMap<String, Result<String, String>>;

/// Checks every served response against an in-process computation of the
/// same request: plain predicts against the direct pass, regression
/// predicts and the sweep against their own direct runs, made the first
/// time `expected` lacks them.
fn check_served(
    replay: &Replay,
    cells: &[Cell],
    scenes: &Scenes,
    predictions: &[Prediction],
    expected: &mut Expected,
    tally: &mut Tally,
) {
    for s in &replay.served {
        tally.attempt();
        if s.status != Some(200) {
            let body: String = s.body.chars().take(200).collect();
            tally.fail(format!(
                "{} {:?}: status {:?}: {body}",
                s.request_id, s.op, s.status
            ));
            continue;
        }
        let want = expected
            .entry(format!("{:?}", s.op))
            .or_insert_with(|| match s.op {
                Op::Predict(i) => Ok(check::prediction_subset(&predictions[i])),
                Op::Regression(i) => passes::regression_predict(&cells[i], scenes.of(i))
                    .map(|p| check::prediction_subset(&p))
                    .map_err(|e| e.to_string()),
                Op::Sweep(i) => zatel_serve::execute_sweep(
                    &cells[i].sweep_request(),
                    &Arc::new(ArtifactCache::in_memory()),
                )
                .map(|o| sweep_subset(&o.response.points))
                .map_err(|e| e.to_string()),
            })
            .clone();
        let got = Value::parse(&s.body)
            .map_err(|e| e.to_string())
            .and_then(|v| match s.op {
                Op::Sweep(_) => SweepResponse::from_json(&v)
                    .map(|r| sweep_subset(&r.points))
                    .map_err(|e| e.to_string()),
                _ => PredictResponse::from_json(&v)
                    .map(|r| check::response_subset(&r))
                    .map_err(|e| e.to_string()),
            });
        match (want, got) {
            (Ok(want), Ok(got)) => tally.expect_same(&s.request_id, &want, &got),
            (Err(e), _) | (_, Err(e)) => tally.fail(format!("{} {:?}: {e}", s.request_id, s.op)),
        }
    }
}

/// Client latency of each answered request of `replay`, in milliseconds.
fn latencies_ms(replay: &Replay) -> Vec<f64> {
    replay
        .served
        .iter()
        .filter(|s| s.status == Some(200))
        .map(|s| s.latency.as_secs_f64() * 1000.0)
        .collect()
}

/// The timings of every round of an untraced run.
struct Samples {
    setup_s: Vec<f64>,
    /// Per cell, its predict time in each round.
    predict_s: Vec<Vec<f64>>,
    /// Per cell, its reference time in each round.
    reference_s: Vec<Vec<f64>>,
    /// Per round, the served replay's median latency, tail latency and
    /// completed requests per second.
    p50_ms: Vec<f64>,
    tail_ms: Vec<f64>,
    rps: Vec<f64>,
    /// The tail's percentile and sample count in each round.
    tail_at: (f64, usize),
}

impl Samples {
    fn new(cells: usize) -> Samples {
        Samples {
            setup_s: Vec::new(),
            predict_s: vec![Vec::new(); cells],
            reference_s: vec![Vec::new(); cells],
            p50_ms: Vec::new(),
            tail_ms: Vec::new(),
            rps: Vec::new(),
            tail_at: (0.0, 0),
        }
    }

    /// Forgets the warm-up round.
    fn clear(&mut self) {
        *self = Samples::new(self.predict_s.len());
    }
}

/// What a run's requests are: the cells, how many in-process passes a
/// round makes over them, and the served replay's clients.
struct Plan {
    cells: Vec<Cell>,
    workload: Workload,
    seed: u64,
    passes: usize,
    clients: usize,
}

impl Plan {
    fn new(args: &Args) -> Plan {
        let serve = args.workload == Workload::Serve;
        Plan {
            cells: cells::cells(args.workload, args.scale, args.seed),
            workload: args.workload,
            seed: args.seed,
            passes: if serve { SERVE_PASSES_PER_ROUND } else { 1 },
            clients: if serve { CLIENTS } else { 1 },
        }
    }

    /// The requests round `round` replays. The cold workloads send each
    /// cell once, in canonical order, like a user of `zatel predict
    /// --url`, so the first request on a fresh server is always the same
    /// cell. `serve` sends [`SERVE_ROUND_OPS`] requests of its mix, dealt
    /// in another order each round: which requests meet at the server, and
    /// so its queueing, depends on the order, and a run then averages over
    /// orders instead of measuring one.
    fn ops(&self, round: u64) -> Vec<Op> {
        if self.workload == Workload::Serve {
            cells::serve_mix(
                self.cells.len(),
                cells::mix(self.seed, round),
                SERVE_ROUND_OPS,
            )
        } else {
            canonical_order(&self.cells)
                .into_iter()
                .map(Op::Predict)
                .collect()
        }
    }
}

/// Runs one workload and returns its metrics, tally and digest.
///
/// An untraced run repeats cold rounds while another fits in
/// `seconds`; the first round warms the process up and is not timed (a
/// process's first set-ups ran about 35% slower than its later ones). A
/// round sets up (builds the scenes, binds a fresh server with an empty
/// disk tier), makes the cold predict pass and the reference pass in
/// process, then replays the workload's requests against the server.
/// Every pass must reproduce the first pass's outputs exactly. A traced run makes one round, composing each
/// prediction from the stage calls.
///
/// # Errors
///
/// Returns a message when an operation fails so early that no metric can
/// be measured (the set-up, a predict, or the server itself).
pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let plan = Plan::new(args);
    let mut out = Outcome::default();
    for cell in &plan.cells {
        out.note(format!("cell {}", cell.label()));
    }
    if args.trace {
        traced_run(&plan, work, &mut out)?;
    } else {
        timed_run(&plan, Duration::from_secs(args.seconds), work, &mut out)?;
    }
    Ok(out)
}

/// The untraced run: rounds until `budget` is spent, then the end-to-end
/// metrics.
fn timed_run(plan: &Plan, budget: Duration, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let cells = &plan.cells;
    let start = Instant::now();
    let mut s = Samples::new(cells.len());
    let mut first: Option<(Vec<Prediction>, Vec<zatel::Reference>)> = None;
    let mut expected = Expected::new();
    for n in 0u64.. {
        let round = Instant::now();
        let dir = work.join(format!("round-{n}"));
        let mut setup = set_up(cells, &dir, None)?;
        s.setup_s.push(setup.seconds);
        for _ in 1..SETUPS_PER_ROUND {
            drop(setup);
            setup = set_up(cells, &dir, None)?;
            s.setup_s.push(setup.seconds);
        }
        let Setup { scenes, fleet, .. } = setup;
        for _ in 0..plan.passes {
            let predictions = timed_predicts(cells, &scenes, &mut s.predict_s, &mut out.tally)?;
            let references = timed_references(cells, &scenes, &mut s.reference_s, &mut out.tally);
            let digest = outputs_digest(cells, &predictions, &references);
            if out.digest.is_empty() {
                out.digest = digest;
                first = Some((predictions, references));
            } else {
                out.tally
                    .expect_same("repeated pass", &out.digest.clone(), &digest);
            }
        }
        let ops = plan.ops(n);
        let replay = replay::replay(fleet, cells, &ops, plan.clients);
        let _ = std::fs::remove_dir_all(&dir);
        let replay = replay?;
        let (predictions, _) = first.as_ref().ok_or("no round ran")?;
        check_served(
            &replay,
            cells,
            &scenes,
            predictions,
            &mut expected,
            &mut out.tally,
        );
        let lat = latencies_ms(&replay);
        let (tail_ms, tail_pct) = tail(&lat);
        s.p50_ms.push(median(&lat));
        s.tail_ms.push(tail_ms);
        s.tail_at = (tail_pct, lat.len());
        s.rps.push(lat.len() as f64 / replay.wall.as_secs_f64());
        if n == 0 {
            s.clear();
        } else if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let (predictions, references) = first.ok_or("no round ran")?;
    let predict_s: f64 = s.predict_s.iter().map(|t| low_decile(t)).sum();
    let reference_s: f64 = s.reference_s.iter().map(|t| low_decile(t)).sum();
    let mae_pct = 100.0
        * predictions
            .iter()
            .zip(&references)
            .map(|(p, r)| p.mae_vs(&r.stats))
            .sum::<f64>()
        / cells.len() as f64;
    let instructions: u64 = references.iter().map(|r| r.stats.instructions).sum();
    out.note(format!(
        "timed rounds: {} after one warm-up, {} in-process pass(es) each; each serves {} request(s), tail = p{:.1} of n={}",
        s.p50_ms.len(),
        plan.passes,
        plan.ops(0).len(),
        s.tail_at.0,
        s.tail_at.1
    ));
    out.note(format!(
        "medians over rounds: setup {:.4} s, predict {:.3} s, reference {:.3} s, serve p50 {:.1} ms",
        median(&s.setup_s),
        s.predict_s.iter().map(|t| median(t)).sum::<f64>(),
        s.reference_s.iter().map(|t| median(t)).sum::<f64>(),
        median(&s.p50_ms)
    ));
    out.put("setup_s", low_decile(&s.setup_s), "s");
    out.put("predict_s", predict_s, "s");
    out.put("reference_s", reference_s, "s");
    out.put("speedup", reference_s / predict_s, "ratio");
    out.put("mae_pct", mae_pct, "%");
    out.put(
        "sim_kips",
        instructions as f64 / reference_s / 1000.0,
        "kinst/s",
    );
    out.put("serve_p50_ms", low_decile(&s.p50_ms), "ms");
    out.put("serve_tail_ms", low_decile(&s.tail_ms), "ms");
    out.put("serve_rps", high_decile(&s.rps), "1/s");
    out.note(format!("peak resident set {:.1} MB", peak_rss_mb()));
    out.put("peak_heap_mb", heap::peak_mb(), "MB");
    Ok(())
}

/// The traced run: one round whose predictions are also composed from the
/// stage calls, then the per-layer metrics.
fn traced_run(plan: &Plan, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let cells = &plan.cells;
    let mut tracer = Tracer::default();
    let Setup { scenes, fleet, .. } = set_up(cells, &work.join("traced"), Some(&mut tracer))?;

    // The untraced predict pass is the baseline; now compose the same
    // predictions from the stage calls.
    let mut predict_times = vec![Vec::new(); cells.len()];
    let predictions = timed_predicts(cells, &scenes, &mut predict_times, &mut out.tally)?;
    let predict_s: f64 = predict_times.iter().flatten().sum();
    let traced_start = Instant::now();
    let mut composed = Vec::with_capacity(cells.len());
    for (i, (cell, prediction)) in cells.iter().zip(&predictions).enumerate() {
        out.tally.attempt();
        let c = passes::traced_predict(cell, scenes.of(i), &mut tracer)
            .map_err(|e| format!("traced predict {}: {e}", cell.label()))?;
        if !c.matches(prediction) {
            out.tally.fail(format!(
                "traced predict {}: differs from Zatel::execute",
                cell.label()
            ));
        }
        composed.push(c);
    }
    let traced_s = traced_start.elapsed().as_secs_f64();
    let refs: Vec<zatel::Reference> = passes::reference_pass(cells, &scenes, Some(&mut tracer))
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    out.tally.attempted += refs.len() as u64;
    out.digest = outputs_digest(cells, &predictions, &refs);
    let replay = replay::replay(fleet, cells, &plan.ops(0), plan.clients)?;
    check_served(
        &replay,
        cells,
        &scenes,
        &predictions,
        &mut Expected::new(),
        &mut out.tally,
    );

    // The service seam alone: the replay's distinct predicts, each on a
    // cold cache, without HTTP.
    let mut execute_ms = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if !replay.served.iter().any(|s| s.op == Op::Predict(i)) {
            continue;
        }
        out.tally.attempt();
        let t = Instant::now();
        let (result, _) = tracer.time("serve.execute_predict", &cell.label(), None, || {
            zatel_serve::execute_predict(&cell.request(), &ArtifactCache::in_memory())
        });
        execute_ms.push(t.elapsed().as_secs_f64() * 1000.0);
        match result {
            Ok(o) => out.tally.expect_same(
                &format!("execute_predict {}", cell.label()),
                &check::prediction_subset(&predictions[i]),
                &check::response_subset(&o.response),
            ),
            Err(e) => out
                .tally
                .fail(format!("execute_predict {}: {e}", cell.label())),
        }
    }

    layer_metrics(
        out,
        &tracer,
        Baseline {
            predictions: &predictions,
            predict_s,
            traced_s,
        },
        &composed,
        &refs,
        &replay,
        &execute_ms,
    );
    let spans = work.join("spans.jsonl");
    tracer
        .write_out(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    out.note(format!(
        "spans: {} written to {}",
        tracer.spans().len(),
        spans.display()
    ));
    Ok(())
}

/// The untraced predict pass of a traced run and how long the traced
/// composition of the same predictions took.
struct Baseline<'a> {
    predictions: &'a [Prediction],
    predict_s: f64,
    traced_s: f64,
}

/// Fills the per-layer metrics of a traced run.
fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    baseline: Baseline,
    composed: &[passes::Composed],
    refs: &[zatel::Reference],
    replay: &Replay,
    execute_ms: &[f64],
) {
    let heatmap_s = tracer.total_self_s("zatel.heatmap");
    let quantize_s = tracer.total_self_s("zatel.quantize");
    let select_s = tracer.total_self_s("zatel.divide") + tracer.total_self_s("zatel.select");
    let busy: f64 = composed.iter().map(|c| c.busy.as_secs_f64()).sum();
    let capacity: f64 = composed
        .iter()
        .map(|c| c.jobs as f64 * c.phase.as_secs_f64())
        .sum();
    let groups: Vec<f64> = composed
        .iter()
        .flat_map(|c| c.groups.iter().map(|(tf, _)| *tf))
        .collect();
    let program_heatmap_s: f64 = baseline
        .predictions
        .iter()
        .flat_map(|p| &p.spans)
        .filter(|s| s.name == "heatmap")
        .map(|s| s.dur_us as f64 / 1e6)
        .sum();
    let program_busy_s: f64 = baseline
        .predictions
        .iter()
        .flat_map(|p| &p.groups)
        .map(|g| g.wall.as_secs_f64())
        .sum();

    let hits = replay.metric("cache_memory_hits") + replay.metric("cache_disk_hits");
    let misses = replay.metric("cache_misses");
    let executed: Vec<f64> = (0..)
        .map(|i| format!("shard{i}_executed"))
        .take_while(|name| replay.metrics.contains(&format!("zatel_serve_{name} ")))
        .map(|name| replay.metric(&name))
        .collect();
    let mean_executed = executed.iter().sum::<f64>() / executed.len().max(1) as f64;
    let max_executed = executed.iter().copied().fold(0.0, f64::max);
    let log: BTreeMap<&str, &Value> = replay
        .log
        .iter()
        .filter(|l| l.get("event").and_then(Value::as_str) == Some("request"))
        .filter_map(|l| Some((l.get("request_id")?.as_str()?, l)))
        .collect();
    let mut queue_wait = Vec::new();
    let mut server_wall = Vec::new();
    let mut transport = Vec::new();
    for s in replay.served.iter().filter(|s| s.status == Some(200)) {
        let Some(line) = log.get(s.request_id.as_str()) else {
            continue;
        };
        let wall = line.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
        queue_wait.push(
            line.get("queue_wait_ms")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        );
        server_wall.push(wall);
        transport.push(s.latency.as_secs_f64() * 1000.0 - wall);
    }

    let predict_total = tracer.total_s("zatel.predict");
    let share = |s: f64| {
        if predict_total > 0.0 {
            s / predict_total
        } else {
            0.0
        }
    };
    for (name, s) in [
        ("heatmap", heatmap_s),
        ("quantize", quantize_s),
        ("divide+select", select_s),
        ("group sims", tracer.total_s("zatel.sim_executor")),
        ("extrapolate", tracer.total_self_s("zatel.extrapolate")),
    ] {
        out.note(format!(
            "share of traced predict: {name} {:.1}%",
            100.0 * share(s)
        ));
    }
    let reference_s = tracer.total_s("gpusim.reference");
    let both = predict_total + reference_s;
    out.note(format!(
        "traced predict {predict_total:.3} s, reference {reference_s:.3} s, scene builds {:.3} s",
        tracer.total_s("rtcore.scene_build")
    ));
    out.note(format!(
        "share of predict + reference: heatmap {:.1}%, gpusim (group sims + reference) {:.1}%",
        100.0 * heatmap_s / both,
        100.0 * (tracer.total_s("zatel.sim_executor") + reference_s) / both
    ));

    out.put(
        "rtcore.scene_build_s",
        tracer.total_s("rtcore.scene_build"),
        "s",
    );
    out.put("heatmap.self_s", heatmap_s, "s");
    out.put("heatmap.program_s", program_heatmap_s, "s");
    out.put("heatmap.share", share(heatmap_s), "ratio");
    out.put("quantize.self_s", quantize_s, "s");
    out.put("select.self_s", select_s, "s");
    out.put(
        "select.traced_fraction",
        groups.iter().sum::<f64>() / groups.len().max(1) as f64,
        "ratio",
    );
    out.put("group_sim.busy_s", busy, "s");
    out.put("group_sim.program_busy_s", program_busy_s, "s");
    out.put(
        "group_sim.critical_s",
        composed.iter().map(|c| c.critical.as_secs_f64()).sum(),
        "s",
    );
    out.put(
        "group_sim.sim_cycles",
        composed
            .iter()
            .flat_map(|c| &c.groups)
            .map(|(_, s)| s.cycles as f64)
            .sum(),
        "count",
    );
    out.put(
        "sim_executor.utilization",
        if capacity > 0.0 { busy / capacity } else { 0.0 },
        "ratio",
    );
    out.put("sim_executor.idle_s", (capacity - busy).max(0.0), "s");
    out.put("reference.busy_s", reference_s, "s");
    out.put(
        "reference.instructions",
        refs.iter().map(|r| r.stats.instructions as f64).sum(),
        "count",
    );
    out.put(
        "reference.cycles",
        refs.iter().map(|r| r.stats.cycles as f64).sum(),
        "count",
    );
    out.put(
        "extrapolate.self_s",
        tracer.total_self_s("zatel.extrapolate"),
        "s",
    );
    out.put(
        "stages.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    out.put("stages.misses", misses, "count");
    out.put(
        "stages.disk_hits",
        replay.metric("cache_disk_hits"),
        "count",
    );
    out.put("service.execute_ms", median(execute_ms), "ms");
    out.put("serve.queue_wait_ms", median(&queue_wait), "ms");
    out.put("serve.server_wall_ms", median(&server_wall), "ms");
    out.put("serve.transport_ms", median(&transport), "ms");
    out.put(
        "serve.shard_imbalance",
        if mean_executed > 0.0 {
            max_executed / mean_executed
        } else {
            0.0
        },
        "ratio",
    );
    out.put(
        "serve.coalesced",
        replay.metric("coalesced_requests"),
        "count",
    );
    out.put("serve.refused", replay.report.refused as f64, "count");
    out.put(
        "trace_overhead_pct",
        100.0 * (baseline.traced_s / baseline.predict_s - 1.0),
        "%",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::ToJson;

    #[test]
    fn tail_is_the_eleventh_from_the_top() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn deciles_pick_the_fastest_tenth() {
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!((low_decile(&v), high_decile(&v)), (3.0, 23.0));
        assert_eq!(
            (low_decile(&[4.0, 2.0]), high_decile(&[4.0, 2.0])),
            (2.0, 4.0)
        );
        assert_eq!(low_decile(&[]), 0.0);
    }

    /// A served reply to `op` with `body`, as the replay records it.
    fn served(index: usize, op: Op, status: u16, body: String) -> replay::Served {
        replay::Served {
            index,
            op,
            request_id: format!("test-{index}"),
            latency: Duration::from_millis(5),
            status: Some(status),
            body,
        }
    }

    #[test]
    fn failed_or_corrupted_replies_trip_the_check() {
        let cell = Cell {
            scene: rtcore::scenes::SceneId::Sprng,
            config: "mobile",
            res: 8,
            spp: 1,
            seed: 3,
            cap: None,
        };
        let cells = vec![cell.clone()];
        let scenes = Scenes::build(&cells, None);
        let predictions: Vec<Prediction> = passes::predict_pass(&cells, &scenes)
            .into_iter()
            .map(|(p, _)| p.expect("tiny predict"))
            .collect();
        let good = zatel_serve::execute_predict(&cell.request(), &ArtifactCache::in_memory())
            .expect("tiny served predict")
            .response;
        let mut corrupted = good.clone();
        corrupted.groups[0].cycles += 1;
        let replay = Replay {
            served: vec![
                served(0, Op::Predict(0), 200, good.to_json().to_string()),
                served(1, Op::Predict(0), 429, "{}".into()),
                served(2, Op::Predict(0), 200, corrupted.to_json().to_string()),
            ],
            wall: Duration::from_millis(20),
            metrics: String::new(),
            report: zatel_serve::ServeReport::default(),
            log: Vec::new(),
        };
        let mut tally = Tally::default();
        check_served(
            &replay,
            &cells,
            &scenes,
            &predictions,
            &mut Expected::new(),
            &mut tally,
        );
        assert_eq!(
            (tally.attempted, tally.failed),
            (3, 2),
            "{:?}",
            tally.problems
        );
        let mut out = Outcome {
            tally,
            ..Outcome::default()
        };
        out.put("predict_s", 1.0, "s");
        assert!(out
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.tally.attempt();
        out.put("predict_s", 1.25, "s");
        let v = Value::parse(&out.result_line()).expect("valid JSON");
        let keys: Vec<&String> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys.len(), 4);
        for k in ["correct", "attempted", "failed", "metrics"] {
            assert!(v.get(k).is_some(), "{k}");
        }
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("predict_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
    }
}
