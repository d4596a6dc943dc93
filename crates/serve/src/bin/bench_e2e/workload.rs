//! The four workloads and the request streams they send.
//!
//! Every measured request derives its spec seed from `(workload seed,
//! index)`, so cold requests never share a cache digest; warm-up requests
//! draw from their own domain and lie outside the measured stream. Seeds
//! stay below 2^53 because the wire format carries them as JSON numbers.

use crate::stats::{derive, poisson_schedule, Rng};

const DOMAIN_MEASURED: u64 = 1;
const DOMAIN_WARMUP: u64 = 2;
const DOMAIN_SCHEDULE: u64 = 3;
const DOMAIN_MIX: u64 = 4;
const SEED_MASK: u64 = (1 << 53) - 1;

/// Open-loop arrival rate of `interactive_mix`, requests per second.
pub const MIX_RATE: f64 = 60.0;
/// A replay repeats a cold request scheduled at least this long before it,
/// so the original has normally finished and the repeat is a cache hit
/// rather than an attach to the in-flight job.
const REPLAY_MIN_AGE_NS: u64 = 1_000_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepCliff,
    FleetYield,
    RetrainHarden,
    InteractiveMix,
}

impl Workload {
    pub const ALL: [Self; 4] = [
        Self::SweepCliff,
        Self::FleetYield,
        Self::RetrainHarden,
        Self::InteractiveMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::SweepCliff => "sweep_cliff",
            Self::FleetYield => "fleet_yield",
            Self::RetrainHarden => "retrain_harden",
            Self::InteractiveMix => "interactive_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed loop: one connection, the next request leaves when the
    /// previous one completes. Otherwise an open loop on a schedule.
    pub fn closed_loop(self) -> bool {
        self != Self::InteractiveMix
    }

    /// Whether the server (and the traced replay) run with a disk tier.
    pub fn uses_disk(self) -> bool {
        self == Self::InteractiveMix
    }

    /// Client connections (and client threads) the workload uses.
    pub fn connections(self) -> usize {
        if self.closed_loop() {
            1
        } else {
            2
        }
    }
}

/// What a request asks for; `Replay` repeats an earlier cold request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Sweep,
    Fleet,
    Retrain,
    Replay,
    ToySweep,
    IsoToy,
    FleetSmall,
    RetrainToy,
    MnistPoint,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Self::Sweep => "sweep",
            Self::Fleet => "fleet",
            Self::Retrain => "retrain",
            Self::Replay => "replay",
            Self::ToySweep => "toy_sweep",
            Self::IsoToy => "iso_toy",
            Self::FleetSmall => "fleet_small",
            Self::RetrainToy => "retrain_toy",
            Self::MnistPoint => "mnist_point",
        }
    }
}

/// `interactive_mix` class shares, in percent.
const MIX: [(Class, u32); 6] = [
    (Class::Replay, 40),
    (Class::ToySweep, 20),
    (Class::IsoToy, 15),
    (Class::FleetSmall, 10),
    (Class::RetrainToy, 8),
    (Class::MnistPoint, 7),
];

const FAULT_MODELS: [&str; 3] = ["gaussian", "chip_variation", "correlated_burst"];

/// One request: what it is, its HTTP bytes, and (open loop) when it is due.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub class: Class,
    pub method: &'static str,
    /// Path plus query string.
    pub target: String,
    pub body: Vec<u8>,
    /// The complete HTTP/1.1 request as sent.
    pub raw: Vec<u8>,
    /// Due time as an offset from the start of the phase (open loop).
    pub due_ns: u64,
    /// The earlier request a `Replay` repeats byte for byte.
    pub replay_of: Option<usize>,
    /// Fault-model index of fleet requests.
    pub fault_model: Option<usize>,
}

impl Request {
    fn new(class: Class, spec_seed: u64, variant: usize) -> Self {
        let fm = variant % FAULT_MODELS.len();
        let (method, target, body, fault_model) = match class {
            Class::Sweep => post(
                "/v1/sweep",
                format!(r#"{{"network":"mnist_fc","trials":4,"grid":{{"start_mv":360,"stop_mv":520,"step_mv":20}},"seed":{spec_seed}}}"#),
            ),
            Class::Fleet => (
                "POST",
                "/v1/fleet".to_owned(),
                format!(r#"{{"dies":2000,"array_bits":4194304,"fault_model":"{}","seed":{spec_seed}}}"#, FAULT_MODELS[fm]),
                Some(fm),
            ),
            Class::Retrain => post(
                "/v1/retrain",
                format!(r#"{{"network":"mnist_fc","target_mv":460,"epochs":1,"trials":2,"grid":{{"start_mv":400,"stop_mv":560,"step_mv":40}},"seed":{spec_seed}}}"#),
            ),
            Class::ToySweep => post(
                "/v1/sweep",
                format!(r#"{{"network":"toy","trials":3,"voltages_mv":[380,440,500],"seed":{spec_seed}}}"#),
            ),
            Class::IsoToy => (
                "GET",
                format!("/v1/iso-accuracy?floor=0.9&trials=2&start_mv=380&stop_mv=560&step_mv=60&seed={spec_seed}"),
                String::new(),
                None,
            ),
            Class::FleetSmall => (
                "POST",
                "/v1/fleet".to_owned(),
                format!(r#"{{"dies":64,"array_bits":65536,"grid":{{"start_mv":520,"stop_mv":620,"step_mv":20}},"fault_model":"{}","seed":{spec_seed}}}"#, FAULT_MODELS[fm]),
                Some(fm),
            ),
            Class::RetrainToy => post(
                "/v1/retrain",
                format!(r#"{{"network":"toy","target_mv":380,"epochs":2,"trials":2,"voltages_mv":[360,420,480,540],"seed":{spec_seed}}}"#),
            ),
            Class::MnistPoint => post(
                "/v1/sweep",
                format!(r#"{{"network":"mnist_fc","trials":2,"voltages_mv":[480],"seed":{spec_seed}}}"#),
            ),
            Class::Replay => unreachable!("replays copy an existing request"),
        };
        let raw = if method == "GET" {
            format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n")
        } else {
            format!(
                "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        };
        Self {
            class,
            method,
            target,
            body: body.into_bytes(),
            raw: raw.into_bytes(),
            due_ns: 0,
            replay_of: None,
            fault_model,
        }
    }

    fn replay(original: &Request, index: usize, due_ns: u64) -> Self {
        Self {
            class: Class::Replay,
            due_ns,
            replay_of: Some(index),
            ..original.clone()
        }
    }
}

fn post(path: &str, body: String) -> (&'static str, String, String, Option<usize>) {
    ("POST", path.to_owned(), body, None)
}

fn spec_seed(seed: u64, domain: u64, index: usize) -> u64 {
    derive(seed, domain, index as u64) & SEED_MASK
}

/// The single class a closed-loop workload sends.
fn closed_class(workload: Workload) -> Class {
    match workload {
        Workload::SweepCliff => Class::Sweep,
        Workload::FleetYield => Class::Fleet,
        Workload::RetrainHarden => Class::Retrain,
        Workload::InteractiveMix => unreachable!("interactive_mix is open loop"),
    }
}

/// Measured request `index` of a closed-loop workload; fleet requests
/// cycle through the three fault models.
pub fn closed_request(workload: Workload, seed: u64, index: usize) -> Request {
    Request::new(
        closed_class(workload),
        spec_seed(seed, DOMAIN_MEASURED, index),
        index,
    )
}

/// The `interactive_mix` stream for a phase of `seconds`: Poisson arrival
/// times at [`MIX_RATE`] and a class per arrival. A replay drawn before
/// any cold request is old enough is sent as a cold request instead.
pub fn open_stream(seed: u64, seconds: f64) -> Vec<Request> {
    let due = poisson_schedule(derive(seed, DOMAIN_SCHEDULE, 0), MIX_RATE, seconds);
    let mut rng = Rng::new(derive(seed, DOMAIN_MIX, 0));
    let mut stream: Vec<Request> = Vec::with_capacity(due.len());
    // Indices of cold requests, in due order.
    let mut cold: Vec<usize> = Vec::new();
    for (index, &due_ns) in due.iter().enumerate() {
        let old_enough = cold.partition_point(|&c| stream[c].due_ns + REPLAY_MIN_AGE_NS <= due_ns);
        let mut class = draw(&mut rng, &MIX);
        if class == Class::Replay && old_enough == 0 {
            class = draw(&mut rng, &MIX[1..]);
        }
        let request = if class == Class::Replay {
            let pick = cold[(rng.next_u64() % old_enough as u64) as usize];
            Request::replay(&stream[pick], pick, due_ns)
        } else {
            cold.push(index);
            Request {
                due_ns,
                ..Request::new(class, spec_seed(seed, DOMAIN_MEASURED, index), index)
            }
        };
        stream.push(request);
    }
    stream
}

fn draw(rng: &mut Rng, table: &[(Class, u32)]) -> Class {
    let total: u32 = table.iter().map(|&(_, w)| w).sum();
    let mut roll = (rng.next_u64() % u64::from(total)) as u32;
    for &(class, weight) in table {
        if roll < weight {
            return class;
        }
        roll -= weight;
    }
    unreachable!("roll is below the total weight")
}

/// One untimed warm-up request per request class, seeded outside the
/// measured stream. The replay class warms up by repeating the first
/// warm-up, which must then be a cache hit.
pub fn warmups(workload: Workload, seed: u64) -> Vec<Request> {
    let classes: Vec<(Class, usize)> = match workload {
        Workload::FleetYield => (0..FAULT_MODELS.len()).map(|v| (Class::Fleet, v)).collect(),
        Workload::InteractiveMix => MIX[1..].iter().map(|&(c, _)| (c, 0)).collect(),
        closed => vec![(closed_class(closed), 0)],
    };
    let mut out: Vec<Request> = classes
        .into_iter()
        .enumerate()
        .map(|(k, (class, variant))| {
            Request::new(class, spec_seed(seed, DOMAIN_WARMUP, k), variant)
        })
        .collect();
    if workload == Workload::InteractiveMix {
        out.push(Request::replay(&out[0], 0, 0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Cache digests of the cold requests, computed the way the server
    /// keys them.
    fn cold_digests(requests: &[Request]) -> Vec<String> {
        requests
            .iter()
            .filter(|r| r.class != Class::Replay)
            .map(|r| {
                crate::replay::cache_key(&crate::replay::decode(r).expect("stream requests decode"))
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_streams() {
        assert_eq!(open_stream(11, 5.0), open_stream(11, 5.0));
        for w in [
            Workload::SweepCliff,
            Workload::FleetYield,
            Workload::RetrainHarden,
        ] {
            let a: Vec<Request> = (0..20).map(|i| closed_request(w, 11, i)).collect();
            let b: Vec<Request> = (0..20).map(|i| closed_request(w, 11, i)).collect();
            assert_eq!(a, b);
        }
        assert_eq!(
            warmups(Workload::InteractiveMix, 3),
            warmups(Workload::InteractiveMix, 3)
        );
    }

    #[test]
    fn cold_digests_are_unique_and_disjoint_across_seeds_and_warmups() {
        let mut seen = HashSet::new();
        for seed in [1, 2] {
            let mut requests = open_stream(seed, 10.0);
            for w in [
                Workload::SweepCliff,
                Workload::FleetYield,
                Workload::RetrainHarden,
            ] {
                requests.extend((0..30).map(|i| closed_request(w, seed, i)));
            }
            for w in Workload::ALL {
                requests.extend(warmups(w, seed));
            }
            for digest in cold_digests(&requests) {
                assert!(seen.insert(digest), "cold digest repeated (seed {seed})");
            }
        }
    }

    #[test]
    fn mix_shares_and_replays_follow_the_table() {
        let stream = open_stream(5, 40.0);
        assert_eq!(stream.len(), 2400);
        let share =
            |c: Class| stream.iter().filter(|r| r.class == c).count() as f64 / stream.len() as f64;
        for &(class, percent) in &MIX {
            let expected = f64::from(percent) / 100.0;
            assert!(
                (share(class) - expected).abs() < 0.03,
                "{}: {}",
                class.name(),
                share(class)
            );
        }
        for (i, r) in stream.iter().enumerate() {
            if let Some(orig) = r.replay_of {
                assert!(orig < i);
                assert_ne!(stream[orig].class, Class::Replay);
                assert_eq!(stream[orig].raw, r.raw);
                assert!(stream[orig].due_ns + REPLAY_MIN_AGE_NS <= r.due_ns);
            }
        }
    }
}
