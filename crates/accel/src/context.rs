//! Multi-context execution — the DANA heritage of the taped-out chip
//! (paper Sec. 4: "a dynamically allocated, multi-context neural network
//! accelerator architecture").
//!
//! Several networks (contexts) stay registered on one accelerator; requests
//! arrive tagged with a context id and the executor time-multiplexes them,
//! reprogramming each memory's boost configuration at every context switch
//! via `set_boost_config`. This is the architectural argument for
//! *programmable* boosting: with multiple resident applications, a fixed
//! boost level would have to be provisioned for the most sensitive context,
//! wasting energy on all the others.

use crate::executor::{BoostSchedule, Dante, InferenceResult};
use crate::program::Program;
use core::fmt;

/// Identifier of a registered context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextId(usize);

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// One registered context: a compiled program plus its boost schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    name: String,
    program: Program,
    schedule: BoostSchedule,
}

impl Context {
    /// Creates a context.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover the program's layers.
    #[must_use]
    pub fn new(name: impl Into<String>, program: Program, schedule: BoostSchedule) -> Self {
        assert_eq!(
            schedule.layers(),
            program.weight_layer_count(),
            "schedule must cover every weight-bearing program layer"
        );
        Self {
            name: name.into(),
            program,
            schedule,
        }
    }

    /// Context name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The boost schedule.
    #[must_use]
    pub fn schedule(&self) -> &BoostSchedule {
        &self.schedule
    }
}

/// An inference request: which context, and its input sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Target context.
    pub context: ContextId,
    /// Input sample (must match the context program's input length).
    pub sample: Vec<f32>,
}

/// Multi-context statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContextStats {
    /// Requests served.
    pub requests: u64,
    /// Context switches performed (a switch happens whenever consecutive
    /// requests target different contexts).
    pub switches: u64,
}

/// A Dante accelerator hosting multiple resident contexts.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiContextDante {
    dante: Dante,
    contexts: Vec<Context>,
    last: Option<ContextId>,
    stats: ContextStats,
}

impl MultiContextDante {
    /// Wraps an accelerator for multi-context service.
    #[must_use]
    pub fn new(dante: Dante) -> Self {
        Self {
            dante,
            contexts: Vec::new(),
            last: None,
            stats: ContextStats::default(),
        }
    }

    /// Registers a context, returning its id.
    pub fn register(&mut self, context: Context) -> ContextId {
        self.contexts.push(context);
        ContextId(self.contexts.len() - 1)
    }

    /// Number of resident contexts.
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.contexts.len()
    }

    /// The underlying accelerator (for stats and voltage control).
    #[must_use]
    pub fn dante(&self) -> &Dante {
        &self.dante
    }

    /// Multi-context service statistics.
    #[must_use]
    pub fn stats(&self) -> ContextStats {
        self.stats
    }

    /// Serves one request.
    ///
    /// # Panics
    ///
    /// Panics if the context id is unknown or the sample length mismatches
    /// the context's program.
    pub fn serve(&mut self, request: &Request) -> InferenceResult {
        let ContextId(idx) = request.context;
        assert!(
            idx < self.contexts.len(),
            "unknown context {}",
            request.context
        );
        if self.last != Some(request.context) {
            if self.last.is_some() {
                self.stats.switches += 1;
            }
            self.last = Some(request.context);
        }
        self.stats.requests += 1;
        let ctx = &self.contexts[idx];
        self.dante
            .run(ctx.program(), ctx.schedule(), &request.sample)
    }

    /// Serves a whole request queue in order, returning one result per
    /// request.
    pub fn serve_all(&mut self, requests: &[Request]) -> Vec<InferenceResult> {
        requests.iter().map(|r| self.serve(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use dante_circuit::units::Volt;
    use dante_nn::layers::{Dense, Layer, Relu};
    use dante_nn::network::Network;
    use dante_sram::model::FaultModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn program(seed: u64, inputs: usize) -> Program {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(vec![
            Layer::Dense(Dense::new(inputs, 10, &mut rng)),
            Layer::Relu(Relu::new(10)),
            Layer::Dense(Dense::new(10, 4, &mut rng)),
        ])
        .unwrap();
        let calib: Vec<f32> = (0..inputs).map(|i| i as f32 / inputs as f32).collect();
        Program::compile(&net, &calib).unwrap()
    }

    fn host(vdd: f64) -> MultiContextDante {
        let dante = Dante::new(
            ChipConfig::dante(),
            &FaultModel::default(),
            Volt::new(vdd),
            9,
        );
        MultiContextDante::new(dante)
    }

    #[test]
    fn interleaving_does_not_change_results() {
        // A context's output on a given die must be identical whether it
        // runs alone or interleaved with another context — the isolation
        // guarantee that makes per-context boost schedules meaningful.
        let mut multi = host(0.40);
        let a = multi.register(Context::new(
            "sensitive",
            program(1, 12),
            BoostSchedule::uniform(4, 2, 3),
        ));
        let b = multi.register(Context::new(
            "tolerant",
            program(2, 8),
            BoostSchedule::uniform(1, 2, 1),
        ));
        let sample_a: Vec<f32> = (0..12).map(|i| (i as f32 * 0.3).cos().abs()).collect();
        let sample_b: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).sin().abs()).collect();

        let solo = multi.serve(&Request {
            context: a,
            sample: sample_a.clone(),
        });
        let _ = multi.serve(&Request {
            context: b,
            sample: sample_b.clone(),
        });
        let interleaved = multi.serve(&Request {
            context: a,
            sample: sample_a,
        });
        assert_eq!(solo, interleaved);
        assert_eq!(multi.contexts(), 2);
    }

    #[test]
    fn switches_are_counted_only_on_context_change() {
        let mut multi = host(0.45);
        let a = multi.register(Context::new(
            "a",
            program(3, 8),
            BoostSchedule::uniform(2, 2, 2),
        ));
        let b = multi.register(Context::new(
            "b",
            program(4, 8),
            BoostSchedule::uniform(0, 2, 0),
        ));
        let s = vec![0.5f32; 8];
        let requests = vec![
            Request {
                context: a,
                sample: s.clone(),
            },
            Request {
                context: a,
                sample: s.clone(),
            },
            Request {
                context: b,
                sample: s.clone(),
            },
            Request {
                context: a,
                sample: s.clone(),
            },
        ];
        let results = multi.serve_all(&requests);
        assert_eq!(results.len(), 4);
        assert_eq!(multi.stats().requests, 4);
        assert_eq!(multi.stats().switches, 2);
    }

    #[test]
    fn per_context_schedules_hit_different_boost_levels() {
        let mut multi = host(0.40);
        let a = multi.register(Context::new(
            "hi",
            program(5, 8),
            BoostSchedule::uniform(4, 2, 2),
        ));
        let b = multi.register(Context::new(
            "lo",
            program(6, 8),
            BoostSchedule::uniform(1, 2, 2),
        ));
        let s = vec![0.25f32; 8];
        let _ = multi.serve(&Request {
            context: a,
            sample: s.clone(),
        });
        let _ = multi.serve(&Request {
            context: b,
            sample: s,
        });
        let per_level = multi.dante().weight_stats().accesses_per_level();
        assert!(per_level[4] > 0, "context A's accesses at level 4");
        assert!(per_level[1] > 0, "context B's accesses at level 1");
    }

    #[test]
    #[should_panic(expected = "unknown context")]
    fn unknown_context_rejected() {
        let mut multi = host(0.45);
        let _ = multi.serve(&Request {
            context: ContextId(3),
            sample: vec![],
        });
    }
}
