//! Seeded input generators: the benchmark's only source of variation.
//!
//! Every workload derives its op list from `--seed` through [`Rng`], so
//! one seed always yields the same edits, request orders and cell
//! orders, and the program under test sees only the generated sources
//! and requests.

use std::collections::HashSet;
use std::sync::Arc;

use parfait_hsms::platform::Cpu;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{AppPipeline, StdApp};

/// SplitMix64: tiny, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5045_5246_4245_4e43) // "PERFBENC"
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Where an edit lands in the password-hasher source: `text`, with
/// `K` replaced by the edit's constant, is appended to `anchor`'s line,
/// so no other line moves and the `line=` tags of the loop-bound
/// annotations stay put.
pub struct Site {
    pub function: &'static str,
    anchor: &'static str,
    text: &'static str,
}

/// One site per function of the hasher (BLAKE2s + HMAC + `handle`).
/// Each perturbs a live `u32` that is neither an index nor a loop
/// bound, so the analyses stay exactly as precise as on the original.
/// `hmac_blake2s` has no such variable, so its edit routes a constant
/// round trip into a byte of `ih` that `blake2s_hash` overwrites next.
pub const SITES: [Site; 6] = [
    Site {
        function: "b2s_rotr",
        anchor: "u32 b2s_rotr(u32 x, u32 n) {",
        text: " x = x + K; x = x - K;",
    },
    Site {
        function: "b2s_g",
        anchor: "void b2s_g(u32* v, u32 a, u32 b, u32 c, u32 d, u32 x, u32 y) {",
        text: " y = y + K; y = y - K;",
    },
    Site {
        function: "blake2s_compress",
        anchor: "void blake2s_compress(u32* h, u8* block, u32 t, u32 last) {",
        text: " t = t + K; t = t - K;",
    },
    Site {
        function: "blake2s_hash",
        anchor: "        u32 v = h[i];",
        text: " v = v + K; v = v - K;",
    },
    Site {
        function: "hmac_blake2s",
        anchor: "    u8 ih[32];",
        text: " u32 pb = msglen + K; pb = pb - K; ih[0] = (u8)pb;",
    },
    Site {
        function: "handle",
        anchor: "    u32 tag = cmd[0];",
        text: " tag = tag + K; tag = tag - K;",
    },
];

/// A behaviour-preserving edit of one function.
pub struct Edit {
    pub function: &'static str,
    pub constant: u32,
    pub source: String,
}

/// The edit sequence of one run: each round applies one edit to each
/// of the six functions in a seeded order, and every edit uses a
/// constant not used before in the run.
pub struct EditGen {
    rng: Rng,
    used: HashSet<u32>,
    order: Vec<usize>,
    next: usize,
}

impl EditGen {
    pub fn new(seed: u64) -> EditGen {
        EditGen { rng: Rng::new(seed), used: HashSet::new(), order: Vec::new(), next: 0 }
    }

    /// The next edit of `base` (the unedited hasher source).
    pub fn next_edit(&mut self, base: &str) -> Result<Edit, String> {
        if self.next == self.order.len() {
            self.order = (0..SITES.len()).collect();
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        let site = &SITES[self.order[self.next]];
        self.next += 1;
        let constant = loop {
            // Nonzero, so the edit always emits code.
            let k = (self.rng.next_u64() as u32) | 1;
            if self.used.insert(k) {
                break k;
            }
        };
        Ok(Edit { function: site.function, constant, source: apply(site, base, constant)? })
    }
}

/// Apply one edit; the anchor must occur exactly once.
pub fn apply(site: &Site, base: &str, k: u32) -> Result<String, String> {
    let mut hits = base.match_indices(site.anchor);
    let (at, _) = hits
        .next()
        .ok_or_else(|| format!("edit anchor for {} not found in hasher source", site.function))?;
    if hits.next().is_some() {
        return Err(format!("edit anchor for {} is ambiguous", site.function));
    }
    let end = at + site.anchor.len();
    let text = site.text.replace('K', &format!("{k:#x}"));
    Ok(format!("{}{text}{}", &base[..end], &base[end..]))
}

/// One `-O2` cell of the serve-warm request mix.
pub const SERVE_CELLS: [(&str, &str); 4] =
    [("hasher", "ibex"), ("hasher", "pico"), ("totp", "ibex"), ("totp", "pico")];

/// A client's request list for one round: every cell `copies` times,
/// in a seeded order.
pub fn serve_round(rng: &mut Rng, copies: usize) -> Vec<usize> {
    let mut list: Vec<usize> = (0..SERVE_CELLS.len()).flat_map(|c| vec![c; copies]).collect();
    rng.shuffle(&mut list);
    list
}

/// The twelve hasher/totp cells hw-sweep re-verifies.
pub fn hw_cells() -> Vec<(Arc<AppPipeline>, OptLevel, Cpu)> {
    let mut cells = Vec::new();
    for app in [StdApp::Hasher, StdApp::Totp] {
        let app = Arc::new(app.pipeline());
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            for cpu in [Cpu::Ibex, Cpu::Pico] {
                cells.push((Arc::clone(&app), opt, cpu));
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edits(seed: u64, n: usize) -> Vec<(&'static str, u32)> {
        let base = parfait_hsms::firmware::hasher_app_source();
        let mut gen = EditGen::new(seed);
        (0..n)
            .map(|_| {
                let e = gen.next_edit(&base).expect("anchors present");
                (e.function, e.constant)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_sequences_and_another_seed_another_order() {
        assert_eq!(edits(7, 24), edits(7, 24));
        let (a, b) = (edits(7, 24), edits(8, 24));
        let order = |v: &[(&'static str, u32)]| v.iter().map(|e| e.0).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b), "different seeds must reorder the functions");

        let rounds = |seed| {
            let mut rng = Rng::new(seed);
            (0..4).map(|_| serve_round(&mut rng, 3)).collect::<Vec<_>>()
        };
        assert_eq!(rounds(3), rounds(3));
        assert_ne!(rounds(3), rounds(4));
    }

    #[test]
    fn rounds_rotate_over_all_six_functions_with_fresh_constants() {
        let seq = edits(11, 60);
        for round in seq.chunks(SITES.len()) {
            let mut fns: Vec<&str> = round.iter().map(|e| e.0).collect();
            fns.sort_unstable();
            let mut all: Vec<&str> = SITES.iter().map(|s| s.function).collect();
            all.sort_unstable();
            assert_eq!(fns, all);
        }
        let constants: HashSet<u32> = seq.iter().map(|e| e.1).collect();
        assert_eq!(constants.len(), seq.len(), "no constant repeats within a run");
    }

    #[test]
    fn serve_rounds_cover_every_cell_equally() {
        let mut rng = Rng::new(1);
        let round = serve_round(&mut rng, 5);
        for c in 0..SERVE_CELLS.len() {
            assert_eq!(round.iter().filter(|&&x| x == c).count(), 5);
        }
    }
}
