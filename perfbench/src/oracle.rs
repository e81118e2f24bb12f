//! The correctness oracle: `fw_engine::reference_results`, a naive
//! evaluator that shares nothing with the optimizer's plans, recomputed for
//! every (term, window) pair and folded into an order-independent digest.
//!
//! A [`Digest`] is a row count plus two wrapping sums of 64-bit hashes over
//! each row's window, interval, key, term index and value bits, so two
//! digests agree only if the two row multisets agree bit for bit (up to a
//! 2^-128 collision). Digests let a run check millions of rows per pass
//! without holding them.

use crate::inputs::{Columns, Term};
use factor_windows::engine::{reference_results, Event, WindowResult};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Order-independent fingerprint of a multiset of result rows.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    a: u64,
    b: u64,
}

impl Digest {
    pub fn add(&mut self, r: &WindowResult) {
        let fields = [
            r.window.range(),
            r.window.slide(),
            r.interval.start,
            r.interval.end,
            u64::from(r.key) | u64::from(r.agg) << 32,
            r.value.to_bits(),
        ];
        self.rows += 1;
        self.a = self.a.wrapping_add(hash(0x243F_6A88_85A3_08D3, &fields));
        self.b = self.b.wrapping_add(hash(0x1319_8A2E_0370_7344, &fields));
    }

    pub fn merge(&mut self, other: Digest) {
        self.rows += other.rows;
        self.a = self.a.wrapping_add(other.a);
        self.b = self.b.wrapping_add(other.b);
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash(seed: u64, fields: &[u64]) -> u64 {
    fields.iter().fold(seed, |h, &f| mix(h ^ f))
}

/// Least time units per oracle chunk. The reference keeps every instance
/// of a chunk in one ordered map; small chunks keep that map in cache.
const MIN_CHUNK: u64 = 1 << 16;

/// Per term, the digest of every row the engine must emit over `cols`
/// once the watermark reaches `n` (the stream's end).
///
/// Instances are assigned to the chunk holding their start; a chunk
/// carries the window's range past its end so every instance it owns is
/// complete. Runs the (term, window) pairs on `threads` threads.
pub fn expected(terms: &[Term], cols: &Columns, threads: usize) -> Vec<Digest> {
    let n = cols.len() as u64;
    // Times are a permutation of 0..n: index every event by its time.
    let mut at = vec![u32::MAX; cols.len()];
    for (i, &t) in cols.times.iter().enumerate() {
        assert!(
            t < n && at[t as usize] == u32::MAX,
            "stream times must be a permutation of 0..n"
        );
        at[t as usize] = i as u32;
    }
    let jobs: Vec<(usize, usize)> = terms
        .iter()
        .enumerate()
        .flat_map(|(t, term)| (0..term.windows.len()).map(move |w| (t, w)))
        .collect();
    let next = AtomicUsize::new(0);
    let run = || {
        let mut digests = vec![Digest::default(); terms.len()];
        let mut events = Vec::new();
        while let Some(&(t, w)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
            let (term, digest) = (&terms[t], &mut digests[t]);
            let window = term.windows[w];
            let chunk = (4 * window.range()).max(MIN_CHUNK);
            let mut lo = 0;
            while lo < n {
                let hi = (lo + chunk + window.range()).min(n);
                events.clear();
                events.extend((lo..hi).map(|t| {
                    let i = at[t as usize] as usize;
                    Event::new(t, cols.keys[i], cols.values[i])
                }));
                for mut row in reference_results(&[window], term.function, &events) {
                    if (lo..lo + chunk).contains(&row.interval.start) {
                        row.agg = term.agg;
                        digest.add(&row);
                    }
                }
                lo += chunk;
            }
        }
        digests
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(run)).collect();
        let mut total = vec![Digest::default(); terms.len()];
        for worker in workers {
            let part = worker.join().expect("oracle worker panicked");
            for (sum, d) in total.iter_mut().zip(part) {
                sum.merge(d);
            }
        }
        total
    })
}
