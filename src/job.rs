//! One simulation job: a netlist's stimulus and engine, driven by the
//! paper's measurement method — apply the stimulus, warm up, reset the
//! measurements, then count over a timed window.
//!
//! Everything that simulates a netlist goes through [`Job`]: `lsim`'s
//! `stats`, `sim`, `machine` and `trace`, [`measure`](crate::measure),
//! the studies and the engine-equivalence test matrix. The caller picks
//! the engine in a [`JobSpec`] and, for the parallel engine, brings the
//! partition: strategies differ by caller, and some remap theirs
//! through the optimizer first.
//!
//! [`Job::new`] checks the window, resolves the stimulus and runs the
//! engine's pre-flight, so every front end refuses the same inputs with
//! the same [`JobError`]. [`Job::run`] is the whole method; callers that
//! act between ticks (a waveform recorder, a per-tick digest, a vector
//! sampler) hook every window step with [`Job::run_each`], and callers
//! that check the warm-up too take it first with [`Job::warm_up`].

use crate::measure::measured_params;
use logicsim_machine::MeasuredParams;
use logicsim_netlist::{Level, NetId, Netlist};
use logicsim_sim::stimulus::run_with_stimulus;
use logicsim_sim::{
    BitParSim, BitParStats, ObsReport, ParSimulator, PreflightError, RandomStimulus, SimConfig,
    Simulator, Stimulus64, StimulusSpec, TickTrace, WorkloadCounters,
};
use logicsim_stats::{ParallelWorkload, Workload};
use std::fmt;
use std::time::{Duration, Instant};

/// Ticks one vector of a serial replay may take to settle before it
/// counts as unsettled.
pub const QUIESCE_CAP: u64 = 50_000;

/// The engine a job runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineSpec<'a> {
    /// The serial event-driven [`Simulator`], tick by tick.
    #[default]
    Serial,
    /// [`ParSimulator`] on `workers` parties; `assignment` maps every
    /// component to a partition, as a `logicsim-partition` strategy
    /// returns it.
    Par {
        /// Parties (threads), at least 1.
        workers: usize,
        /// Partition per component id.
        assignment: &'a [u32],
    },
    /// [`BitParSim`] at `lanes` lanes (1..=64) under the vector
    /// protocol: positions count vectors, each settled before the next,
    /// and lane `i` draws its stimulus from
    /// [`Stimulus64::lane_seed`]`(seed, i)`.
    BitPar {
        /// Active lanes.
        lanes: usize,
    },
    /// The serial engine under the same vector protocol, one scenario:
    /// each vector is run to quiescence (at most [`QUIESCE_CAP`] ticks).
    Replay,
}

/// What a job runs: engine, window, seed and what to record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobSpec<'a> {
    /// The engine.
    pub engine: EngineSpec<'a>,
    /// Ticks (vectors) run before the measurements are reset.
    pub warmup: u64,
    /// Ticks (vectors) of the measured window after the warm-up.
    pub window: u64,
    /// Stimulus RNG seed.
    pub seed: u64,
    /// Collect the full [`TickTrace`] (event engines only).
    pub collect_trace: bool,
    /// Arm the per-phase wall-clock recorder (event engines only).
    pub observe: bool,
}

/// Why a job cannot start.
#[derive(Debug)]
pub enum JobError {
    /// `warmup + window` does not fit the 64-bit tick counter.
    Window {
        /// The requested warm-up.
        warmup: u64,
        /// The requested window.
        window: u64,
    },
    /// The stimulus names an unknown net or an undefined waveform.
    Stimulus(String),
    /// The engine refuses to start: the netlist fails the event
    /// engines' static pre-flight, or the spec asks for no parties, an
    /// assignment that does not cover the components one to one, or
    /// lanes outside 1..=64.
    Preflight(PreflightError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Window { warmup, window } => write!(
                f,
                "warm-up {warmup} + window {window} exceeds the 64-bit tick counter"
            ),
            JobError::Stimulus(e) => write!(f, "stimulus: {e}"),
            JobError::Preflight(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JobError {}

impl From<PreflightError> for JobError {
    fn from(e: PreflightError) -> JobError {
        JobError::Preflight(e)
    }
}

/// What a job measured over its warm-up or its window.
#[derive(Debug)]
pub struct Measured {
    /// The workload counters (zero on the bit-parallel engine).
    pub counters: WorkloadCounters,
    /// Share of components that produced at least one event (zero on
    /// the bit-parallel engine).
    pub coverage: f64,
    /// The trace; empty unless [`JobSpec::collect_trace`].
    pub trace: TickTrace,
    /// Per-phase wall-clock report; empty unless [`JobSpec::observe`].
    pub obs: ObsReport,
    /// The machine parameters distilled from `obs`.
    pub params: MeasuredParams,
    /// Wall time spent advancing the engine.
    pub wall: Duration,
    /// The parallel engine's per-party loads and message counts.
    pub parallel: Option<ParallelWorkload>,
    /// The bit-parallel engine's statistics, its counts covering the
    /// measured vectors only.
    pub bitpar: Option<BitParStats>,
}

impl Measured {
    /// The counters as the paper's model reads them.
    #[must_use]
    pub fn workload(&self) -> Workload {
        let c = &self.counters;
        Workload::new(
            c.busy_ticks as f64,
            c.idle_ticks as f64,
            c.events as f64,
            c.messages_inf as f64,
        )
    }
}

/// An engine with its stimulus; the bit-parallel one also keeps its
/// statistics at the last reset (it has no reset of its own).
enum Engine<'n> {
    Serial(RandomStimulus, Simulator<'n>),
    Par(RandomStimulus, Box<ParSimulator<'n>>),
    BitPar(Stimulus64, BitParSim<'n>, BitParStats),
    Replay(RandomStimulus, Simulator<'n>),
}

/// One netlist's stimulus and engine. See the [module docs](self).
pub struct Job<'n> {
    engine: Engine<'n>,
    /// The next tick (vector) to run.
    pos: u64,
    warmup: u64,
    end: u64,
    wall: Duration,
}

impl<'n> Job<'n> {
    /// Builds the stimulus and the engine at tick (vector) 0.
    ///
    /// # Errors
    ///
    /// [`JobError::Window`] if `warmup + window` overflows. Then, for
    /// the bit-parallel engine, [`JobError::Preflight`] for lanes outside
    /// 1..=64, and [`JobError::Stimulus`] if the stimulus does not
    /// resolve against `netlist`. For the event engines,
    /// [`JobError::Stimulus`] first, then [`JobError::Preflight`]: the
    /// netlist's findings, or, for the parallel engine, no parties or an
    /// assignment whose length is not the component count.
    pub fn new(
        netlist: &'n Netlist,
        stimulus: &StimulusSpec,
        spec: &JobSpec<'_>,
    ) -> Result<Job<'n>, JobError> {
        let (warmup, window, seed) = (spec.warmup, spec.window, spec.seed);
        let end = warmup
            .checked_add(window)
            .ok_or(JobError::Window { warmup, window })?;
        let config = SimConfig {
            collect_trace: spec.collect_trace,
            observe: spec.observe,
        };
        let ticks = || stimulus.build(netlist, seed).map_err(JobError::Stimulus);
        let serial = || Simulator::with_config(netlist, config.clone());
        let engine = match spec.engine {
            EngineSpec::Serial => Engine::Serial(ticks()?, serial()?),
            EngineSpec::Replay => Engine::Replay(ticks()?, serial()?),
            EngineSpec::Par {
                workers,
                assignment,
            } => {
                let stim = ticks()?;
                let sim = ParSimulator::with_config(netlist, assignment, workers, config.clone())?;
                Engine::Par(stim, Box::new(sim))
            }
            EngineSpec::BitPar { lanes } => {
                // The engine first, so a lane count outside 1..=64 comes
                // back as the typed PreflightError::Lanes, not as the
                // stimulus's message.
                let sim = BitParSim::new(netlist, lanes)?;
                let stim = Stimulus64::new(stimulus, netlist, seed, lanes);
                let stim = stim.map_err(JobError::Stimulus)?;
                let base = sim.stats();
                Engine::BitPar(stim, sim, base)
            }
        };
        Ok(Job {
            engine,
            pos: 0,
            warmup,
            end,
            wall: Duration::ZERO,
        })
    }

    /// The paper's method: warm up, reset, run the window, measure.
    pub fn run(&mut self) -> Measured {
        self.warm_up();
        self.advance(self.end);
        self.measure()
    }

    /// As [`run`](Self::run), but steps the window one tick (vector) at
    /// a time and calls `each(position, settled, job)` after every step:
    /// `position` is the tick (vector) just run, and `settled` whether a
    /// replay vector settled within [`QUIESCE_CAP`] ticks or a
    /// bit-parallel one without forcing a cluster to X (always true on
    /// the tick engines). The wall time excludes `each`.
    pub fn run_each(&mut self, mut each: impl FnMut(u64, bool, &Job<'n>)) -> Measured {
        self.warm_up();
        for t in self.warmup..self.end {
            let settled = self.advance(t + 1);
            each(t, settled, self);
        }
        self.measure()
    }

    /// Runs the warm-up and returns what it measured, then resets the
    /// measurements. [`run`](Self::run) and [`run_each`](Self::run_each)
    /// start with it, so after a first call they go straight to the
    /// window.
    pub fn warm_up(&mut self) -> Measured {
        self.advance(self.warmup);
        let m = self.measure();
        self.reset_measurements();
        m
    }

    /// Runs up to tick (vector) `to`, exclusive, applying the stimulus
    /// before each; nothing happens if the job is already there.
    /// Returns whether every vector it ran settled: a replay within
    /// [`QUIESCE_CAP`] ticks, a bit-parallel sweep without forcing a
    /// cluster to X (always true on the tick engines).
    fn advance(&mut self, to: u64) -> bool {
        let (t0, mut settled) = (Instant::now(), true);
        match &mut self.engine {
            Engine::Serial(stim, sim) => run_with_stimulus(sim, stim, to),
            Engine::Par(stim, sim) => sim.run_with(to, |tick, frame| {
                stim.apply_with(tick, |net, level| frame.set(net, level));
            }),
            Engine::BitPar(stim, sim, _) => {
                for v in self.pos..to {
                    stim.apply_with(v, |net, plane| sim.set_input_plane(net, plane));
                    settled &= sim.settle_vector();
                }
            }
            Engine::Replay(stim, sim) => {
                for v in self.pos..to {
                    stim.apply_with(v, |net, level| sim.set_input(net, level));
                    let cap = sim.now() + QUIESCE_CAP;
                    settled &= sim.run_to_quiescence(cap) < cap;
                }
            }
        }
        self.pos = self.pos.max(to);
        self.wall += t0.elapsed();
        settled
    }

    /// Starts the measurements again from zero (not the circuit state).
    fn reset_measurements(&mut self) {
        match &mut self.engine {
            Engine::Serial(_, sim) | Engine::Replay(_, sim) => sim.reset_measurements(),
            Engine::Par(_, sim) => sim.reset_measurements(),
            Engine::BitPar(_, sim, base) => *base = sim.stats(),
        }
        self.wall = Duration::ZERO;
    }

    /// The measurements since the last reset; takes the trace.
    fn measure(&mut self) -> Measured {
        let (mut workers, mut parallel, mut bitpar) = (1, None, None);
        let (counters, coverage, trace, obs) = match &mut self.engine {
            Engine::Serial(_, sim) | Engine::Replay(_, sim) => (
                sim.counters().clone(),
                sim.activity().coverage(),
                sim.take_trace(),
                sim.obs_report(),
            ),
            Engine::Par(_, sim) => {
                (workers, parallel) = (sim.workers(), Some(sim.parallel_workload()));
                (
                    sim.counters().clone(),
                    sim.activity().coverage(),
                    sim.take_trace(),
                    sim.obs_report(),
                )
            }
            Engine::BitPar(_, sim, base) => {
                let mut st = sim.stats();
                st.vectors -= base.vectors;
                st.sweeps -= base.sweeps;
                st.compiled_evals -= base.compiled_evals;
                st.unconverged_vectors -= base.unconverged_vectors;
                bitpar = Some(st);
                Default::default()
            }
        };
        Measured {
            params: measured_params(&obs, workers as u32),
            counters,
            coverage,
            trace,
            obs,
            wall: self.wall,
            parallel,
            bitpar,
        }
    }

    /// The level of `net`; `lane` picks the bit-parallel scenario and
    /// is 0 on every other engine.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn level(&self, net: NetId, lane: usize) -> Level {
        match &self.engine {
            Engine::BitPar(_, sim, _) => sim.level(net, lane),
            _ if lane != 0 => panic!("lane {lane} of a one-scenario engine"),
            Engine::Serial(_, sim) | Engine::Replay(_, sim) => sim.level(net),
            Engine::Par(_, sim) => sim.level(net),
        }
    }

    /// The serial engine, for readers that need more than a level (a
    /// waveform recorder); `None` on the other engines.
    #[must_use]
    pub fn simulator(&self) -> Option<&Simulator<'n>> {
        match &self.engine {
            Engine::Serial(_, sim) | Engine::Replay(_, sim) => Some(sim),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logicsim_circuits::Benchmark;
    use logicsim_netlist::{Delay, GateKind, NetlistBuilder};
    use logicsim_sim::SignalRole;

    /// What `Job::new` returns for `engine` on the stopwatch.
    fn start(engine: EngineSpec<'_>) -> Result<(), JobError> {
        let inst = Benchmark::StopWatch.build_default();
        let spec = JobSpec {
            engine,
            window: 8,
            ..JobSpec::default()
        };
        Job::new(&inst.netlist, &inst.stimulus, &spec).map(|_| ())
    }

    fn components() -> usize {
        Benchmark::StopWatch
            .build_default()
            .netlist
            .num_components()
    }

    /// A parallel job on no parties is refused with a typed error, and
    /// one party is a job.
    #[test]
    fn a_job_on_no_parties_is_refused() {
        let assignment = vec![0; components()];
        let refused = start(EngineSpec::Par {
            workers: 0,
            assignment: &assignment,
        });
        assert!(
            matches!(refused, Err(JobError::Preflight(PreflightError::NoWorkers))),
            "{refused:?}"
        );
        start(EngineSpec::Par {
            workers: 1,
            assignment: &assignment,
        })
        .expect("one party");
    }

    /// An assignment one entry short of the component count, or one
    /// long, is refused with both lengths; an exact one is a job.
    #[test]
    fn a_job_whose_assignment_misses_the_component_count_is_refused() {
        let nc = components();
        for len in [nc - 1, nc + 1] {
            let assignment = vec![0; len];
            let refused = start(EngineSpec::Par {
                workers: 2,
                assignment: &assignment,
            });
            assert!(
                matches!(
                    refused,
                    Err(JobError::Preflight(PreflightError::Assignment { len: l, components }))
                        if l == len && components == nc
                ),
                "{refused:?}"
            );
        }
        start(EngineSpec::Par {
            workers: 2,
            assignment: &vec![0; nc],
        })
        .expect("one partition per component");
    }

    /// Lanes 0 and 65 are refused with a typed error, not the stimulus's
    /// or the engine's panic; lanes 1 and 64 are jobs.
    #[test]
    fn a_job_on_lanes_outside_1_to_64_is_refused() {
        for lanes in [0, 65] {
            let refused = start(EngineSpec::BitPar { lanes });
            assert!(
                matches!(refused, Err(JobError::Preflight(PreflightError::Lanes(l))) if l == lanes),
                "{refused:?}"
            );
        }
        for lanes in [1, 64] {
            start(EngineSpec::BitPar { lanes }).expect("lanes in range");
        }
    }

    /// On `y = BUF(a)`, a stimulus that assigns `a` twice is refused by
    /// every engine with a message that names `a`. Assigned once, the
    /// serial replay and lane 0 of the bit-parallel engine read the same
    /// `y` after every vector.
    #[test]
    fn a_net_assigned_twice_is_refused_and_replay_matches_lane_0() {
        let mut b = NetlistBuilder::new("buf");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Buf, &[a], y, Delay::uniform(1));
        b.mark_output(y);
        let netlist = b.finish().expect("valid");
        let clock = StimulusSpec::new().with(
            "a",
            SignalRole::Clock {
                half_period: 2,
                phase: 0,
            },
        );
        let twice = clock.clone().with("a", SignalRole::Const(Level::Zero));
        let job = |stimulus: &StimulusSpec, engine| {
            let spec = JobSpec {
                engine,
                window: 9,
                ..JobSpec::default()
            };
            Job::new(&netlist, stimulus, &spec)
        };
        for engine in [
            EngineSpec::Serial,
            EngineSpec::Replay,
            EngineSpec::BitPar { lanes: 1 },
        ] {
            let refused = job(&twice, engine).map(|_| ());
            assert!(
                matches!(&refused, Err(JobError::Stimulus(e)) if e.contains("`a`")),
                "{engine:?}: {refused:?}"
            );
        }
        let ys = |engine| {
            let mut ys = Vec::new();
            let mut job = job(&clock, engine).expect("one assignment");
            job.run_each(|_, _, job| ys.push(job.level(y, 0)));
            ys
        };
        let replay = ys(EngineSpec::Replay);
        let want = [0, 0, 1, 1, 0, 0, 1, 1, 0].map(|bit| Level::from_bool(bit == 1));
        assert_eq!(replay, want);
        assert_eq!(ys(EngineSpec::BitPar { lanes: 1 }), replay);
    }
}
