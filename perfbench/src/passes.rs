//! The in-process passes over a workload's cells: scene set-up, the cold
//! predict pass through `Zatel::execute`, the reference pass through
//! `Zatel::run_reference`, and the traced predict composed from the
//! public stage functions.

use std::time::{Duration, Instant};

use gpusim::{Metric, SimStats, Simulator};
use rtcore::scene::Scene;
use rtworkload::RtWorkload;
use zatel::heatmap::Heatmap;
use zatel::partition::divide;
use zatel::quantize::QuantizedHeatmap;
use zatel::select::select_pixels;
use zatel::{Group, Prediction, Reference, RunContext, Selection, Zatel, ZatelError};

use crate::cells::Cell;
use crate::trace::Tracer;

/// The scenes of a workload's cells, each built once.
pub struct Scenes {
    built: Vec<Scene>,
    /// Index into `built` of each cell's scene.
    of_cell: Vec<usize>,
}

impl Scenes {
    /// Builds the scene (BVH included) of every distinct scene and seed
    /// among `cells`, recording one `rtcore.scene_build` span per build
    /// when tracing.
    pub fn build(cells: &[Cell], mut tracer: Option<&mut Tracer>) -> Scenes {
        let mut keys = Vec::new();
        let mut built = Vec::new();
        let of_cell = cells
            .iter()
            .map(|cell| {
                let key = (cell.scene.name(), cell.seed);
                if let Some(i) = keys.iter().position(|k| *k == key) {
                    return i;
                }
                let build = || cell.scene.build(cell.seed);
                built.push(match tracer.as_deref_mut() {
                    Some(t) => t.time("rtcore.scene_build", &cell.label(), None, build).0,
                    None => build(),
                });
                keys.push(key);
                keys.len() - 1
            })
            .collect();
        Scenes { built, of_cell }
    }

    /// The scene of cell `i`.
    pub fn of(&self, i: usize) -> &Scene {
        &self.built[self.of_cell[i]]
    }
}

fn predictor<'s>(cell: &Cell, scene: &'s Scene) -> Zatel<'s> {
    Zatel::new(scene, cell.gpu(), cell.res, cell.res, cell.trace()).with_options(cell.options())
}

/// The cold predict pass: one `Zatel::execute` per cell, each on a
/// private (empty) artifact cache, with each call's wall time.
pub fn predict_pass(
    cells: &[Cell],
    scenes: &Scenes,
) -> Vec<(Result<Prediction, ZatelError>, Duration)> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let start = Instant::now();
            let result = predictor(cell, scenes.of(i)).execute(&RunContext::new());
            (result, start.elapsed())
        })
        .collect()
}

/// The regression variant of one cell, as a served regression request
/// computes it.
pub fn regression_predict(cell: &Cell, scene: &Scene) -> Result<Prediction, ZatelError> {
    predictor(cell, scene).execute(&RunContext::new().with_regression(crate::cells::REGRESSION))
}

/// The reference pass: the full-GPU simulation of every cell with each
/// call's wall time, timed as a `gpusim.reference` span when tracing.
pub fn reference_pass(
    cells: &[Cell],
    scenes: &Scenes,
    mut tracer: Option<&mut Tracer>,
) -> Vec<(Reference, Duration)> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let zatel = predictor(cell, scenes.of(i));
            let start = Instant::now();
            let reference = match tracer.as_deref_mut() {
                Some(t) => {
                    t.time("gpusim.reference", &cell.label(), None, || {
                        zatel.run_reference()
                    })
                    .0
                }
                None => zatel.run_reference(),
            };
            (reference, start.elapsed())
        })
        .collect()
}

/// A prediction composed from the public stage functions.
#[derive(Debug, Clone)]
pub struct Composed {
    /// Predicted metrics, in `Metric::ALL` order.
    pub values: [f64; 7],
    /// Per group: traced fraction and simulator statistics.
    pub groups: Vec<(f64, SimStats)>,
    /// Sum of the group simulations' wall times.
    pub busy: Duration,
    /// The slowest group's wall time.
    pub critical: Duration,
    /// Wall time of the group-simulation phase.
    pub phase: Duration,
    /// Executor workers that ran the phase.
    pub jobs: usize,
}

impl Composed {
    /// Whether this equals `prediction` bit for bit: every predicted
    /// metric, and every group's traced fraction and statistics.
    pub fn matches(&self, prediction: &Prediction) -> bool {
        Metric::ALL
            .iter()
            .zip(self.values)
            .all(|(&m, v)| prediction.value(m).to_bits() == v.to_bits())
            && self.groups.len() == prediction.groups.len()
            && self
                .groups
                .iter()
                .zip(&prediction.groups)
                .all(|((tf, stats), g)| {
                    tf.to_bits() == g.traced_fraction.to_bits() && *stats == g.stats
                })
    }
}

/// One cell's prediction, composed from the stage functions the pipeline
/// runs (`Heatmap::profile`, `QuantizedHeatmap::quantize`, `divide`,
/// `select_pixels`, `Simulator::run` over `SimExecutor::map_timed`, and
/// `Metric::extrapolate`/`combine`), each call timed as a span under a
/// `zatel.predict` root.
///
/// # Errors
///
/// Returns the pipeline's error for an invalid downscale factor.
pub fn traced_predict(
    cell: &Cell,
    scene: &Scene,
    tracer: &mut Tracer,
) -> Result<Composed, ZatelError> {
    let group = cell.label();
    let zatel = predictor(cell, scene);
    let options = zatel.options().clone();
    let trace = cell.trace();
    let res = cell.res;
    let root = tracer.open("zatel.predict", &group, None);
    let parent = Some(root);

    let (heatmap, _) = tracer.time("zatel.heatmap", &group, parent, || {
        Heatmap::profile(scene, res, res, &trace)
    });
    let (quantized, _) = tracer.time("zatel.quantize", &group, parent, || {
        QuantizedHeatmap::quantize(&heatmap, options.quant_colors, trace.seed)
    });
    let k = zatel.resolve_factor()?;
    let mut down = zatel.target().downscaled(k)?;
    down.sim_threads = options.effective_sim_threads();
    down.timing_threads = options.effective_timing_threads();
    let (groups, _) = tracer.time("zatel.divide", &group, parent, || {
        divide(res, res, k, options.division)
    });
    let (selections, _): (Vec<Selection>, _) = tracer.time("zatel.select", &group, parent, || {
        groups
            .iter()
            .map(|g| select_pixels(g, &quantized, &options.selection))
            .collect()
    });

    let executor = zatel.executor();
    let pairs: Vec<(&Group, &Selection)> = groups.iter().zip(&selections).collect();
    let phase_id = tracer.open("zatel.sim_executor", &group, parent);
    let phase_start = tracer.now();
    let (sims, timings) = executor.map_timed(&pairs, |_, (g, s)| {
        let workload = RtWorkload::new(scene, res, res, trace, g.pixels.clone())
            .with_selection(s.mask.clone());
        let traced_fraction = workload.traced_fraction();
        (traced_fraction, Simulator::new(down.clone()).run(&workload))
    });
    tracer.close(phase_id);
    let phase = tracer.spans()[phase_id].dur();
    for t in &timings {
        let start = phase_start + t.start;
        tracer.record(
            "gpusim.group",
            &group,
            start,
            start + t.wall,
            Some(phase_id),
        );
    }

    let (values, _) = tracer.time("zatel.extrapolate", &group, parent, || {
        let mut values = [0.0f64; 7];
        for (value, metric) in values.iter_mut().zip(Metric::ALL) {
            let per_group: Vec<f64> = sims
                .iter()
                .map(|(tf, stats)| metric.extrapolate(metric.value(stats), *tf))
                .collect();
            *value = metric.combine(&per_group);
        }
        values
    });
    tracer.close(root);

    Ok(Composed {
        values,
        groups: sims,
        busy: timings.iter().map(|t| t.wall).sum(),
        critical: timings.iter().map(|t| t.wall).max().unwrap_or_default(),
        phase,
        jobs: executor.jobs().min(pairs.len()).max(1),
    })
}
