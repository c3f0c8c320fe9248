//! The fixed traffic of every workload and the open-loop load generator.
//!
//! Rates, burst shape, latency limits and pool sizes are constants: the
//! offered load never depends on measured capacity, so a faster program
//! receives the same load and shows its gain as lower latency, higher
//! attainment or faster drains. The input pools are fixed evaluation
//! sets; `--seed` draws the arrival times and the order requests visit
//! the pool in. `--seconds` sets how many segments a run measures.
//!
//! A run alternates open-loop segments with backlog rounds, so both kinds
//! of measurement spread over the whole run instead of sampling one
//! stretch of it.

use std::time::{Duration, Instant};

use flexiq_serve::ServeError;

/// Set-ups timed per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 9;
/// Share of `--seconds` planned for open-loop segments; the backlog
/// round after each segment takes the rest.
pub const OPEN_SHARE: f64 = 0.75;
/// Segments (each followed by a backlog round) a run measures at least.
pub const MIN_SEGMENTS: usize = 3;
/// Requests answered and checked against the oracle before timing.
pub const PRECHECK: usize = 64;

/// Which serving level an image workload pins (or whether it adapts).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ImageControl {
    /// `Server::start_fixed` at the level nearest this 4-bit ratio
    /// (0 = int8).
    Fixed(f64),
    /// `Server::start_adaptive` with the default controller, brownout
    /// ladder and deadlines.
    Adaptive,
}

/// One open-loop segment: piecewise-Poisson `(seconds, rate)` pieces.
pub type Cycle = &'static [(f64, f64)];

/// Traffic of an RNet20 (eval scale) workload.
#[derive(Clone, Copy, Debug)]
pub struct ImageSpec {
    pub control: ImageControl,
    pub cycle: Cycle,
    /// Requests submitted at once per backlog round.
    pub backlog: usize,
    /// Latency limit (due → response) for `slo_attain`.
    pub limit_ms: f64,
    /// Images of the fixed evaluation pool, served round-robin.
    pub pool: usize,
}

/// Traffic of the TinyLm (eval scale) generation workload.
#[derive(Clone, Copy, Debug)]
pub struct GenSpec {
    pub cycle: Cycle,
    pub backlog: usize,
    /// Prompt lengths, inclusive.
    pub prompt_len: (usize, usize),
    /// Per-request token budgets, inclusive (the prefill token counts).
    pub budget: (usize, usize),
    /// 4-bit ratio the server runs at.
    pub ratio: f64,
    /// KV-cache feature-group size and low-band share (`KvSpec::mixed`).
    pub kv: (usize, f64),
    /// Limits for `slo_attain`: time to first token from due time, and
    /// mean gap between later tokens.
    pub ttft_limit_ms: f64,
    pub tpot_limit_ms: f64,
    /// Prompts of the fixed evaluation pool, served round-robin.
    pub pool: usize,
}

/// Poisson at 150 rps for 3 s: well under the int8 drain rate (small
/// batches, mostly one or two requests).
const STEADY: Cycle = &[(3.0, 150.0)];

/// Quiet → a 0.25 s burst at 1400 rps (above the int8 drain rate) →
/// quiet long enough to recover at the slowest level.
const BURST: Cycle = &[(1.5, 150.0), (0.25, 1400.0), (1.75, 150.0)];

pub const RNET20_INT8: ImageSpec = ImageSpec {
    control: ImageControl::Fixed(0.0),
    cycle: STEADY,
    backlog: 512,
    limit_ms: 25.0,
    pool: 256,
};

pub const RNET20_Q50: ImageSpec = ImageSpec {
    control: ImageControl::Fixed(0.5),
    ..RNET20_INT8
};

pub const RNET20_BURST: ImageSpec = ImageSpec {
    control: ImageControl::Adaptive,
    cycle: BURST,
    ..RNET20_INT8
};

pub const TINYLM_GEN: GenSpec = GenSpec {
    cycle: &[(3.0, 200.0)],
    backlog: 512,
    prompt_len: (2, 8),
    budget: (2, 8),
    ratio: 0.5,
    kv: (2, 0.5),
    ttft_limit_ms: 10.0,
    tpot_limit_ms: 2.0,
    pool: 256,
};

/// Arrival offsets (seconds) of one segment: Poisson within each piece
/// of `cycle`.
pub fn arrivals(cycle: Cycle, seed: u64) -> Vec<f64> {
    flexiq_serving::piecewise_poisson(cycle, seed)
}

/// Derives an independent sub-seed for one use of the run's seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finalizer over the (seed, stream) pair.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One offered request and what became of it.
pub struct Record<R> {
    /// Index of the request in its phase (selects its input).
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    pub outcome: Result<R, ServeError>,
}

/// Replays `arrivals` open loop: the calling thread submits each
/// request at its due time regardless of how the server is doing, and
/// waits the tickets only once every request is out, so no waiting
/// thread competes with the server while the load runs. Latency comes
/// from the server-reported times, so collecting late does not
/// distort it. Requests are numbered from `first_index`.
pub fn open_loop<T, R>(
    arrivals: &[f64],
    first_index: usize,
    submit: impl Fn(usize) -> Result<T, ServeError>,
    mut wait: impl FnMut(T) -> Result<R, ServeError>,
) -> Vec<Record<R>> {
    let t0 = Instant::now() + Duration::from_millis(5);
    let sent: Vec<_> = arrivals
        .iter()
        .zip(first_index..)
        .map(|(&at, index)| {
            let due = t0 + Duration::from_secs_f64(at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            (index, due, Instant::now(), submit(index))
        })
        .collect();
    sent.into_iter()
        .map(|(index, due, sent, ticket)| Record {
            index,
            due,
            sent,
            outcome: ticket.and_then(&mut wait),
        })
        .collect()
}

/// Submits `n` requests at once and waits for all of them. Returns the
/// records and the drain time (first submission → last response).
pub fn backlog<T, R>(
    n: usize,
    first_index: usize,
    submit: impl Fn(usize) -> Result<T, ServeError>,
    mut wait: impl FnMut(T) -> Result<R, ServeError>,
) -> (Vec<Record<R>>, Duration) {
    let t0 = Instant::now();
    let tickets: Vec<_> = (first_index..first_index + n)
        .map(|i| (i, Instant::now(), submit(i)))
        .collect();
    let records = tickets
        .into_iter()
        .map(|(index, sent, ticket)| Record {
            index,
            due: t0,
            sent,
            outcome: ticket.and_then(&mut wait),
        })
        .collect();
    (records, t0.elapsed())
}

/// Everything a run offered in its timed phases.
pub struct Timed<R> {
    /// Each open-loop segment's requests.
    pub segments: Vec<Vec<Record<R>>>,
    /// Each backlog round's requests and drain time.
    pub rounds: Vec<(Vec<Record<R>>, Duration)>,
}

impl<R> Timed<R> {
    /// Every open-loop request.
    pub fn open(&self) -> impl Iterator<Item = &Record<R>> {
        self.segments.iter().flatten()
    }

    /// Every backlog request.
    pub fn drains(&self) -> impl Iterator<Item = &Record<R>> {
        self.rounds.iter().flat_map(|r| &r.0)
    }

    /// Requests offered in the timed phases.
    pub fn offered(&self) -> usize {
        self.open().count() + self.drains().count()
    }
}

/// The timed phases: open-loop segments of `cycle`, each followed by one
/// backlog round of `backlog` requests, as many as fit `seconds`.
/// Requests are numbered from `first_index`.
pub fn run_timed<T, R>(
    cycle: Cycle,
    backlog_n: usize,
    seconds: f64,
    seed: u64,
    first_index: usize,
    submit: impl Fn(usize) -> Result<T, ServeError> + Copy,
    mut wait: impl FnMut(T) -> Result<R, ServeError>,
) -> Timed<R> {
    let period: f64 = cycle.iter().map(|p| p.0).sum();
    let segments = ((seconds * OPEN_SHARE / period) as usize).max(MIN_SEGMENTS);
    let mut timed = Timed {
        segments: Vec::new(),
        rounds: Vec::new(),
    };
    let mut next = first_index;
    for k in 0..segments {
        let arrivals = arrivals(cycle, sub_seed(seed, k as u64));
        let open = open_loop(&arrivals, next, submit, &mut wait);
        next += open.len();
        timed.segments.push(open);
        let round = backlog(backlog_n, next, submit, &mut wait);
        next += backlog_n;
        timed.rounds.push(round);
    }
    timed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_and_span_the_segment() {
        let a = arrivals(BURST, 1);
        assert_eq!(a, arrivals(BURST, 1));
        assert_ne!(a, arrivals(BURST, 2));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 3.5);
        // 1.5·150 + 0.25·1400 + 1.75·150 ≈ 837 arrivals.
        assert!((700..980).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn sub_seeds_differ_per_stream() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
    }
}
