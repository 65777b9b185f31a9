//! The workloads: which prediction cells each one runs and, for the
//! served replay, the order of requests. Everything here is generated
//! from the workload seed; the program only ever sees the result.

use gpusim::GpuConfig;
use rtcore::scenes::SceneId;
use rtcore::tracer::TraceConfig;
use zatel::{SweepSpec, ZatelOptions};
use zatel_proto::{ConfigRef, PredictRequest, SweepRequest};

/// Ray bounce depth of every service-issued trace; cells use the same so
/// in-process and served predictions agree.
const MAX_BOUNCES: u32 = zatel_serve::service::MAX_BOUNCES;

/// The scenes every workload draws from: the heaviest (PARK), the
/// coldest heatmap (SHIP) and a uniformly warm one (BUNNY).
const SCENES: [SceneId; 3] = [SceneId::Park, SceneId::Ship, SceneId::Bunny];
/// Both target GPU presets.
const CONFIGS: [&str; 2] = ["mobile", "rtx2060"];
/// Traced-share cap of the low-trace workload (paper §IV-B pushes the
/// traced share below 10%).
const LOWTRACE_CAP: f64 = 0.03;
/// Traced fractions of the served regression requests (the CLI's
/// `--regression` default).
pub const REGRESSION: [f64; 3] = [0.2, 0.3, 0.4];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold Eq. (1) predicts, then the full-GPU reference.
    Headline,
    /// Cold predicts with the traced share capped at a few percent.
    Lowtrace,
    /// A closed-loop replay against an in-process server.
    Serve,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::Headline, Workload::Lowtrace, Workload::Serve];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Headline => "headline",
            Workload::Lowtrace => "lowtrace",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is the measured benchmark, `Tiny` a seconds-long
/// smoke run of the same shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small resolutions for tests.
    Tiny,
}

/// One prediction input: scene, target GPU, image size and master seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Scene.
    pub scene: SceneId,
    /// GPU preset name (`mobile` or `rtx2060`).
    pub config: &'static str,
    /// Square resolution.
    pub res: u32,
    /// Samples per pixel.
    pub spp: u32,
    /// Master seed (scene build, tracing).
    pub seed: u64,
    /// Traced-share cap, when the workload sets one.
    pub cap: Option<f64>,
}

impl Cell {
    /// A short label for reports: `PARK/mobile/128/s1234`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/s{}",
            self.scene.name(),
            self.config,
            self.res,
            self.seed
        )
    }

    /// The trace configuration the service would use for this cell.
    pub fn trace(&self) -> TraceConfig {
        TraceConfig {
            samples_per_pixel: self.spp,
            max_bounces: MAX_BOUNCES,
            seed: self.seed,
        }
    }

    /// The target GPU, resolved the way the service resolves a request's
    /// preset.
    pub fn gpu(&self) -> GpuConfig {
        ConfigRef::preset(self.config)
            .resolve()
            .expect("the benchmark uses only built-in presets")
    }

    /// Pipeline options: the program defaults plus the cell's cap.
    pub fn options(&self) -> ZatelOptions {
        let mut options = ZatelOptions::default();
        options.selection.percent_cap = self.cap;
        options
    }

    /// The same prediction as a wire request.
    pub fn request(&self) -> PredictRequest {
        let mut request = PredictRequest::new(self.scene.name(), ConfigRef::preset(self.config));
        request.res = self.res;
        request.spp = self.spp;
        request.seed = self.seed;
        if self.cap.is_some() {
            request.options = Some(self.options());
        }
        request
    }

    /// The regression variant of [`Cell::request`].
    pub fn regression_request(&self) -> PredictRequest {
        let mut request = self.request();
        request.regression = Some(REGRESSION);
        request
    }

    /// A two-point traced-share sweep over the cell.
    pub fn sweep_request(&self) -> SweepRequest {
        let mut request = SweepRequest::new(
            self.scene.name(),
            ConfigRef::preset(self.config),
            SweepSpec::from_percents(&[0.1, 0.3]),
        );
        request.res = self.res;
        request.spp = self.spp;
        request.seed = self.seed;
        request
    }
}

/// splitmix64: a well-mixed stream from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The program's default master seed (`zatel predict --seed`).
const CANONICAL_SEED: u64 = 42;

/// The cells of `workload`, in an order drawn from the workload seed.
///
/// Cells keep canonical master seeds (42, and 43 for the second `serve`
/// cell per scene and config) rather than seeds drawn from the workload
/// seed: the master seed also builds the procedural scene, and geometry
/// alone moves a cell's host time by about 10% from seed to seed, more
/// than any bound of the benchmark allows. The workload seed orders the
/// cells and, on `serve`, draws the request mix.
pub fn cells(workload: Workload, scale: Scale, seed: u64) -> Vec<Cell> {
    let tiny = scale == Scale::Tiny;
    let (res, configs, cap, seeds): (u32, &[&str], Option<f64>, u64) = match workload {
        Workload::Headline => (if tiny { 16 } else { 64 }, &CONFIGS, None, 1),
        Workload::Lowtrace => (
            if tiny { 32 } else { 96 },
            &CONFIGS[..1],
            Some(LOWTRACE_CAP),
            1,
        ),
        Workload::Serve => (if tiny { 16 } else { 32 }, &CONFIGS, None, 2),
    };
    let mut out = Vec::new();
    for scene in SCENES {
        for &config in configs {
            for j in 0..seeds {
                out.push(Cell {
                    scene,
                    config,
                    res,
                    spp: 1,
                    seed: CANONICAL_SEED + j,
                    cap,
                });
            }
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    out
}

/// One request of the served replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A plain predict of cell `i` (first-seen the first time, a repeat
    /// afterwards).
    Predict(usize),
    /// A regression predict of cell `i`, which bypasses the stage cache.
    Regression(usize),
    /// The replay's one sweep, over cell `i`.
    Sweep(usize),
}

/// Cell indices dealt from a deck of every cell, shuffled from the
/// workload seed each time it runs out, so every cell comes up equally
/// often and seeds differ only in the order.
struct Deck {
    seed: u64,
    cells: usize,
    cards: Vec<usize>,
    shuffles: u64,
}

impl Deck {
    fn deal(&mut self) -> usize {
        if self.cards.is_empty() {
            self.cards = (0..self.cells).collect();
            for j in (1..self.cells).rev() {
                let draw = mix(self.seed, 1000 + 64 * self.shuffles + j as u64);
                self.cards.swap(j, (draw % (j as u64 + 1)) as usize);
            }
            self.shuffles += 1;
        }
        self.cards.pop().unwrap_or(0)
    }
}

/// The `serve` workload's request order over `cells` cells.
///
/// Every cell is first seen once, in cell order, at the start; then come
/// repeats dealt from a [`Deck`], with a regression predict every
/// `REGRESSION_EVERY` requests (three in all) and the sweep once. With
/// 12 cells, the first 60 requests hold every kind, and each cell is
/// dealt equally often in every 12 requests after the first 12. Drawing
/// each repeat independently from the cells seen so far made the share
/// of cheap SHIP requests, and the median latency with it, depend on
/// which cells the seed happened to show first.
pub fn serve_mix(cells: usize, seed: u64, len: usize) -> Vec<Op> {
    const REGRESSION_EVERY: usize = 17;
    const REGRESSIONS: usize = 3;
    const SWEEP_AT: usize = 31;
    let mut ops = Vec::with_capacity(len);
    let mut regressions = 0usize;
    let mut deck = Deck {
        seed,
        cells,
        cards: Vec::new(),
        shuffles: 0,
    };
    for i in 0..len {
        let op = if i < cells {
            Op::Predict(i)
        } else if i == SWEEP_AT {
            Op::Sweep(deck.deal())
        } else if i % REGRESSION_EVERY == REGRESSION_EVERY - 1 && regressions < REGRESSIONS {
            regressions += 1;
            Op::Regression(deck.deal())
        } else {
            Op::Predict(deck.deal())
        };
        ops.push(op);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_order() {
        for w in Workload::ALL {
            assert_eq!(cells(w, Scale::Full, 7), cells(w, Scale::Full, 7));
            let mut a: Vec<String> = cells(w, Scale::Full, 7).iter().map(Cell::label).collect();
            let mut b: Vec<String> = cells(w, Scale::Full, 8).iter().map(Cell::label).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "the seed reorders cells, it does not change them");
            a.dedup();
            assert_eq!(a.len(), b.len(), "no cell repeats");
        }
        assert_ne!(
            cells(Workload::Serve, Scale::Full, 7),
            cells(Workload::Serve, Scale::Full, 8)
        );
        assert_eq!(serve_mix(12, 7, 200), serve_mix(12, 7, 200));
        assert_ne!(serve_mix(12, 7, 200), serve_mix(12, 8, 200));
    }

    #[test]
    fn serve_mix_has_every_kind_early() {
        let ops = serve_mix(12, 3, 400);
        let early = &ops[..60];
        let first_seen = (0..12).filter(|i| early.contains(&Op::Predict(*i))).count();
        assert_eq!(first_seen, 12);
        assert_eq!(
            early
                .iter()
                .filter(|o| matches!(o, Op::Regression(_)))
                .count(),
            3
        );
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Sweep(_))).count(), 1);
        // After the first-seen requests, every 12 dealt hold each cell once.
        let dealt: Vec<usize> = ops[12..]
            .iter()
            .map(|&(Op::Predict(i) | Op::Regression(i) | Op::Sweep(i))| i)
            .collect();
        for hand in dealt.chunks_exact(12) {
            let mut hand = hand.to_vec();
            hand.sort_unstable();
            assert_eq!(hand, (0..12).collect::<Vec<_>>());
        }
        // Nothing refers to a cell before its first-seen request.
        let mut seen = 0;
        for op in &ops {
            let (Op::Predict(i) | Op::Regression(i) | Op::Sweep(i)) = *op;
            assert!(i <= seen);
            if i == seen {
                seen += 1;
            }
        }
    }
}
