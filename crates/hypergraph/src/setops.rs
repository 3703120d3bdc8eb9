//! Sorted-set algebra over `u32` slices.
//!
//! HGMatch's candidate generation (paper §V-B, Algorithm 4) is built entirely
//! from three operations over sorted posting lists: union, intersection and
//! difference. The paper notes these "can be implemented very efficiently on
//! modern hardware"; the original system used SIMD. This module therefore
//! layers three kernel families (selection strategy in DESIGN.md §5):
//!
//! * **scalar** — a linear merge when the inputs are similar in size and a
//!   galloping (exponential-probe) variant when one side is much smaller;
//!   the classic adaptive strategy of inverted-index engines. Always
//!   available, and the property-test oracle for everything else.
//! * **SIMD** — SSE/SSSE3 and AVX2 block kernels for intersection and
//!   difference (4 or 8 lanes per step, shuffle-compacted output), selected
//!   by runtime feature detection with a scalar tail. See `simd` below.
//! * **k-way** — a tournament-tree multiway union replacing repeated
//!   pairwise merging ([`union_many_into`]), used by candidate generation
//!   for the per-anchor posting unions.
//!
//! Dense-domain bitwise kernels live in [`crate::bitmap`]; the adaptive
//! sorted-list↔bitmap switch is made per posting list by
//! [`crate::inverted::InvertedIndex`] and per anchor by the engine.
//!
//! All functions require their inputs to be strictly increasing (sorted,
//! deduplicated), which is an invariant of every posting list built by this
//! crate, and produce strictly increasing outputs.
//!
//! Kernel selection can be pinned to the scalar family with
//! [`set_kernel_mode`] (or `HGMATCH_FORCE_SCALAR=1`), which the cross-check
//! tests use to prove result equality between families.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::compressed::{CompressedPostings, BLOCK_LEN};

/// Size ratio above which intersection switches from linear merge to
/// galloping search. With `|small| * RATIO < |large|`, probing the large side
/// with exponential search beats scanning it.
const GALLOP_RATIO: usize = 16;

/// Below this many elements per side, SIMD setup overhead is not worth it
/// and the scalar merge runs instead.
const SIMD_MIN_LEN: usize = 16;

/// Inputs-per-union above which [`union_many_into`] switches from repeated
/// pairwise merging to the tournament-tree multiway merge.
const KWAY_THRESHOLD: usize = 4;

/// Which kernel family the dispatching entry points may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Pick the predicted-cheapest kernel (SIMD where supported).
    Auto,
    /// Run scalar kernels only. Used by cross-check tests and ablations.
    ForceScalar,
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

fn env_forces_scalar() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("HGMATCH_FORCE_SCALAR").is_ok_and(|v| v != "0" && !v.is_empty())
    })
}

/// Sets the kernel mode process-wide. Thread-safe; takes effect on the next
/// dispatched call.
pub fn set_kernel_mode(mode: KernelMode) {
    FORCE_SCALAR.store(mode == KernelMode::ForceScalar, Ordering::Relaxed);
}

/// Whether `HGMATCH_FORCE_SCALAR` is set to a forcing value (anything but
/// empty or `0`). Exposed so tests can mirror the exact dispatch predicate.
pub fn env_forced_scalar() -> bool {
    env_forces_scalar()
}

/// The active kernel mode ([`set_kernel_mode`] or `HGMATCH_FORCE_SCALAR=1`).
pub fn kernel_mode() -> KernelMode {
    if FORCE_SCALAR.load(Ordering::Relaxed) || env_forces_scalar() {
        KernelMode::ForceScalar
    } else {
        KernelMode::Auto
    }
}

/// The SIMD instruction set the dispatcher will use under
/// [`KernelMode::Auto`] on this machine: `"avx2"`, `"ssse3"` or `"scalar"`.
pub fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if simd::have_avx2() {
            return "avx2";
        }
        if simd::have_ssse3() {
            return "ssse3";
        }
    }
    "scalar"
}

#[inline]
fn use_simd(a_len: usize, b_len: usize) -> bool {
    a_len >= SIMD_MIN_LEN && b_len >= SIMD_MIN_LEN && kernel_mode() == KernelMode::Auto
}

/// Intersects two sorted slices into `out` (cleared first).
///
/// Dispatch: gallop when one side is ≫ smaller, else the widest supported
/// SIMD block kernel, else linear merge (DESIGN.md §5.2).
pub fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    intersect_append(a, b, out);
}

/// Appending form of [`intersect_into`]: the same dispatch, but the result
/// is pushed after `out`'s existing contents. This is what the fused
/// compressed kernels call once per decoded block.
fn intersect_append(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    // Quick reject on disjoint ranges.
    if a[a.len() - 1] < b[0] || b[b.len() - 1] < a[0] {
        return;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() * GALLOP_RATIO < large.len() {
        intersect_gallop(small, large, out);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if use_simd(a.len(), b.len()) {
        if simd::have_avx2() {
            // SAFETY: AVX2 support verified at runtime.
            unsafe { simd::intersect_avx2(a, b, out) };
            return;
        }
        if simd::have_ssse3() {
            // SAFETY: SSSE3 support verified at runtime.
            unsafe { simd::intersect_ssse3(a, b, out) };
            return;
        }
    }
    intersect_merge(a, b, out);
}

/// Scalar-only intersection (adaptive merge/gallop). The oracle kernel:
/// always available, never SIMD.
pub fn intersect_into_scalar(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    intersect_append_scalar(a, b, out);
}

/// Appending form of [`intersect_into_scalar`].
fn intersect_append_scalar(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    if a[a.len() - 1] < b[0] || b[b.len() - 1] < a[0] {
        return;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() * GALLOP_RATIO < large.len() {
        intersect_gallop(small, large, out);
    } else {
        intersect_merge(a, b, out);
    }
}

/// Convenience wrapper around [`intersect_into`] that allocates the output.
pub fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_into(a, b, &mut out);
    out
}

fn intersect_merge(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
}

fn intersect_gallop(small: &[u32], large: &[u32], out: &mut Vec<u32>) {
    let mut base = 0usize;
    for &x in small {
        match gallop_search(&large[base..], x) {
            Ok(offset) => {
                out.push(x);
                base += offset + 1;
            }
            Err(offset) => base += offset,
        }
        if base >= large.len() {
            break;
        }
    }
}

/// Exponential search for `target` in a sorted slice. Returns `Ok(pos)` when
/// found, `Err(insertion_pos)` otherwise — mirroring `binary_search`.
fn gallop_search(slice: &[u32], target: u32) -> Result<usize, usize> {
    let mut hi = 1usize;
    while hi < slice.len() && slice[hi] < target {
        hi <<= 1;
    }
    let lo = hi >> 1;
    // The probe stopped with slice[hi] >= target (or ran off the end), so the
    // target may sit exactly at index `hi`: keep it inside the window.
    let hi = (hi + 1).min(slice.len());
    match slice[lo..hi].binary_search(&target) {
        Ok(pos) => Ok(lo + pos),
        Err(pos) => Err(lo + pos),
    }
}

/// Unions two sorted slices into `out` (cleared first).
pub fn union_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                out.push(x);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(y);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Convenience wrapper around [`union_into`] that allocates the output.
pub fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    union_into(a, b, &mut out);
    out
}

/// Reusable buffers for [`union_many_into`]'s tournament merge. Hold one
/// per worker/state and the k-way union allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct MultiwayScratch {
    bufs: Vec<Vec<u32>>,
    spare: Vec<u32>,
}

impl MultiwayScratch {
    /// Creates empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Unions many sorted slices into `out` (cleared first).
///
/// Few inputs are merged pairwise smallest-first; above `KWAY_THRESHOLD`
/// a tournament tree merges pairs in rounds — `O(n log k)` total work with
/// branch-predictable linear merges, instead of the `O(k·n)` accumulating
/// pairwise loop (DESIGN.md §5.3). This is the single k-way union used
/// both here and by candidate generation.
pub fn union_many_into(
    inputs: &mut Vec<&[u32]>,
    out: &mut Vec<u32>,
    scratch: &mut MultiwayScratch,
) {
    out.clear();
    match inputs.len() {
        0 => return,
        1 => {
            out.extend_from_slice(inputs[0]);
            return;
        }
        2 => {
            union_into(inputs[0], inputs[1], out);
            return;
        }
        _ => {}
    }
    if inputs.len() <= KWAY_THRESHOLD {
        // Pairwise, smallest-first: keeps intermediates small.
        inputs.sort_unstable_by_key(|s| s.len());
        union_into(inputs[0], inputs[1], out);
        for s in &inputs[2..] {
            union_into(out, s, &mut scratch.spare);
            std::mem::swap(out, &mut scratch.spare);
        }
        return;
    }

    // Tournament: round 0 merges the input slices pairwise into owned
    // buffers, later rounds merge those buffers pairwise until one remains.
    // Every element passes through ⌈log₂ k⌉ linear merges.
    let rounds_width = inputs.len().div_ceil(2);
    while scratch.bufs.len() < rounds_width {
        scratch.bufs.push(Vec::new());
    }
    let MultiwayScratch { bufs, spare } = scratch;
    let mut n = 0usize;
    for pair in inputs.chunks(2) {
        match *pair {
            [a, b] => union_into(a, b, &mut bufs[n]),
            [a] => {
                bufs[n].clear();
                bufs[n].extend_from_slice(a);
            }
            _ => unreachable!("chunks(2)"),
        }
        n += 1;
    }
    while n > 1 {
        let mut write = 0usize;
        let mut read = 0usize;
        while read + 1 < n {
            union_into(&bufs[read], &bufs[read + 1], spare);
            std::mem::swap(&mut bufs[write], spare);
            write += 1;
            read += 2;
        }
        if read < n {
            bufs.swap(write, read);
            write += 1;
        }
        n = write;
    }
    std::mem::swap(out, &mut bufs[0]);
}

/// Unions many sorted slices. Allocating wrapper around [`union_many_into`].
pub fn union_many(mut inputs: Vec<&[u32]>) -> Vec<u32> {
    let mut out = Vec::new();
    let mut scratch = MultiwayScratch::new();
    union_many_into(&mut inputs, &mut out, &mut scratch);
    out
}

/// Computes `a \ b` (elements of `a` not in `b`) into `out` (cleared first).
///
/// Dispatch mirrors [`intersect_into`]: SIMD block kernel on large similar
/// inputs, scalar merge otherwise.
pub fn difference_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    difference_append(a, b, out);
}

/// Appending form of [`difference_into`], for the fused compressed kernels.
fn difference_append(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    if a.is_empty() {
        return;
    }
    if b.is_empty() || a[a.len() - 1] < b[0] || b[b.len() - 1] < a[0] {
        out.extend_from_slice(a);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if use_simd(a.len(), b.len()) {
        if simd::have_avx2() {
            // SAFETY: AVX2 support verified at runtime.
            unsafe { simd::difference_avx2(a, b, out) };
            return;
        }
        if simd::have_ssse3() {
            // SAFETY: SSSE3 support verified at runtime.
            unsafe { simd::difference_ssse3(a, b, out) };
            return;
        }
    }
    difference_merge(a, b, out);
}

/// Scalar-only difference; the oracle kernel for [`difference_into`].
pub fn difference_into_scalar(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    difference_merge(a, b, out);
}

fn difference_merge(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.reserve(a.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                out.push(x);
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
}

/// Convenience wrapper around [`difference_into`] that allocates the output.
pub fn difference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    difference_into(a, b, &mut out);
    out
}

/// Intersects many sorted slices, smallest-first so the running result only
/// shrinks. Returns an empty vector if `inputs` is empty.
pub fn intersect_many(mut inputs: Vec<&[u32]>) -> Vec<u32> {
    match inputs.len() {
        0 => return Vec::new(),
        1 => return inputs[0].to_vec(),
        _ => {}
    }
    inputs.sort_unstable_by_key(|s| s.len());
    let mut acc = intersect(inputs[0], inputs[1]);
    let mut scratch = Vec::new();
    for s in &inputs[2..] {
        if acc.is_empty() {
            break;
        }
        intersect_into(&acc, s, &mut scratch);
        std::mem::swap(&mut acc, &mut scratch);
    }
    acc
}

/// Tests whether two sorted slices share at least one element.
pub fn intersects(a: &[u32], b: &[u32]) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    if a[a.len() - 1] < b[0] || b[b.len() - 1] < a[0] {
        return false;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() * GALLOP_RATIO < large.len() {
        let mut base = 0usize;
        for &x in small {
            match gallop_search(&large[base..], x) {
                Ok(_) => return true,
                Err(offset) => base += offset,
            }
            if base >= large.len() {
                return false;
            }
        }
        false
    } else {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// Tests whether sorted slice `sub` is a subset of sorted slice `sup`.
pub fn is_subset(sub: &[u32], sup: &[u32]) -> bool {
    if sub.len() > sup.len() {
        return false;
    }
    let mut base = 0usize;
    for &x in sub {
        match gallop_search(&sup[base..], x) {
            Ok(offset) => base += offset + 1,
            Err(_) => return false,
        }
    }
    true
}

/// Checks the strict-increase invariant. Used by debug assertions and tests.
pub fn is_strictly_sorted(slice: &[u32]) -> bool {
    slice.windows(2).all(|w| w[0] < w[1])
}

// ---------------------------------------------------------------------------
// Fused kernels over delta-bitpacked postings (DESIGN.md §14).
//
// Each kernel walks the container block by block, decodes one block into a
// stack-resident `[u32; BLOCK_LEN]` scratch, and runs the ordinary
// (KernelMode-dispatched) append kernels against the overlapping subrange of
// the list operand — the whole posting is never materialised, and blocks
// whose `[min, max]` span cannot overlap the list are skipped without
// decoding. The `_scalar` variants decode fully and run the scalar oracle
// kernels, giving the cross-check tests a fused-free reference.
// ---------------------------------------------------------------------------

/// Intersects a compressed posting with a sorted list into `out` (cleared
/// first). Commutative in contents: `c ∩ list`.
pub fn intersect_compressed_into(c: &CompressedPostings, list: &[u32], out: &mut Vec<u32>) {
    out.clear();
    if c.is_empty() || list.is_empty() {
        return;
    }
    let mut scratch = [0u32; BLOCK_LEN];
    let mut lo = 0usize;
    for bi in 0..c.num_blocks() {
        let (bmin, bmax) = c.block_range(bi);
        lo += list[lo..].partition_point(|&x| x < bmin);
        if lo == list.len() {
            return;
        }
        if list[lo] > bmax {
            continue; // block sits entirely in a gap of the list
        }
        let hi = lo + list[lo..].partition_point(|&x| x <= bmax);
        if c.block_is_run(bi) {
            // Run block: every integer in [bmin, bmax] is stored, so the
            // intersection is exactly the list subrange — no decode.
            out.extend_from_slice(&list[lo..hi]);
        } else {
            intersect_append(c.decode_block(bi, &mut scratch), &list[lo..hi], out);
        }
        lo = hi;
        if lo == list.len() {
            return;
        }
    }
}

/// Scalar oracle for [`intersect_compressed_into`]: full decode, then the
/// scalar intersection.
pub fn intersect_compressed_into_scalar(c: &CompressedPostings, list: &[u32], out: &mut Vec<u32>) {
    let decoded = c.to_sorted();
    intersect_into_scalar(&decoded, list, out);
}

/// Computes `c \ list` into `out` (cleared first).
pub fn difference_compressed_list_into(c: &CompressedPostings, list: &[u32], out: &mut Vec<u32>) {
    out.clear();
    if c.is_empty() {
        return;
    }
    let mut scratch = [0u32; BLOCK_LEN];
    let mut lo = 0usize;
    for bi in 0..c.num_blocks() {
        let (bmin, bmax) = c.block_range(bi);
        lo += list[lo..].partition_point(|&x| x < bmin);
        let hi = lo + list[lo..].partition_point(|&x| x <= bmax);
        if c.block_is_run(bi) {
            // Run block minus the list subrange: emit the inter-hole runs,
            // collapsing consecutive list values into a single skip. The
            // cursors are u64 so a run ending at u32::MAX cannot overflow.
            let sub = &list[lo..hi];
            let mut v = u64::from(bmin);
            let mut k = 0;
            while k < sub.len() {
                out.extend(v as u32..sub[k]);
                let mut e = u64::from(sub[k]) + 1;
                k += 1;
                while k < sub.len() && u64::from(sub[k]) == e {
                    e += 1;
                    k += 1;
                }
                v = e;
            }
            if v <= u64::from(bmax) {
                out.extend(v as u32..=bmax);
            }
        } else {
            difference_append(c.decode_block(bi, &mut scratch), &list[lo..hi], out);
        }
        lo = hi;
    }
}

/// SSE/AVX2 block kernels (DESIGN.md §5.2).
///
/// Both intersection and difference share one structure: load one block per
/// side (4 lanes under SSSE3, 8 under AVX2), compare every pair of lanes by
/// OR-ing the equality masks of all lane rotations of the `b` block, and
/// advance whichever block's maximum is smaller. A block of `a` is *emitted*
/// exactly once, when it is overtaken — its match mask then selects (for
/// intersection) or deselects (for difference) lanes, and a precomputed
/// shuffle table compacts the survivors to the front of the store. Tails
/// and the final partially-compared block fall back to scalar code.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    /// `PERM8[mask]` = AVX2 lane indices moving the set lanes of `mask` to
    /// the front (for `_mm256_permutevar8x32_epi32`).
    static PERM8: [[u32; 8]; 256] = build_perm8();

    const fn build_perm8() -> [[u32; 8]; 256] {
        let mut table = [[0u32; 8]; 256];
        let mut mask = 0usize;
        while mask < 256 {
            let mut out = 0usize;
            let mut lane = 0usize;
            while lane < 8 {
                if mask & (1 << lane) != 0 {
                    table[mask][out] = lane as u32;
                    out += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        table
    }

    /// `SHUF4[mask]` = byte shuffle moving the set 32-bit lanes of `mask`
    /// to the front (for `_mm_shuffle_epi8`).
    static SHUF4: [[u8; 16]; 16] = build_shuf4();

    const fn build_shuf4() -> [[u8; 16]; 16] {
        let mut table = [[0x80u8; 16]; 16];
        let mut mask = 0usize;
        while mask < 16 {
            let mut out = 0usize;
            let mut lane = 0usize;
            while lane < 4 {
                if mask & (1 << lane) != 0 {
                    let mut byte = 0usize;
                    while byte < 4 {
                        table[mask][out * 4 + byte] = (lane * 4 + byte) as u8;
                        byte += 1;
                    }
                    out += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        table
    }

    /// `ROT8[r]` = lane indices rotating an 8-lane vector left by `r`.
    static ROT8: [[u32; 8]; 8] = build_rot8();

    const fn build_rot8() -> [[u32; 8]; 8] {
        let mut table = [[0u32; 8]; 8];
        let mut r = 0usize;
        while r < 8 {
            let mut lane = 0usize;
            while lane < 8 {
                table[r][lane] = ((lane + r) % 8) as u32;
                lane += 1;
            }
            r += 1;
        }
        table
    }

    #[inline]
    pub fn have_avx2() -> bool {
        is_x86_feature_detected!("avx2")
    }

    #[inline]
    pub fn have_ssse3() -> bool {
        is_x86_feature_detected!("ssse3")
    }

    /// Match mask of `va`'s 8 lanes against any lane of `vb`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn match_mask8(va: __m256i, vb: __m256i) -> __m256i {
        let mut acc = _mm256_setzero_si256();
        // Compare against all 8 rotations of vb.
        for rot_idx in &ROT8 {
            let idx = _mm256_loadu_si256(rot_idx.as_ptr() as *const __m256i);
            let rot = _mm256_permutevar8x32_epi32(vb, idx);
            acc = _mm256_or_si256(acc, _mm256_cmpeq_epi32(va, rot));
        }
        acc
    }

    /// AVX2 intersection of strictly sorted slices, appended to `out`.
    ///
    /// # Safety
    /// Requires AVX2 (checked by the caller via [`have_avx2`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn intersect_avx2(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
        let base = out.len();
        out.reserve(a.len().min(b.len()) + 8);
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        let pout = out.as_mut_ptr().add(base);
        let mut acc = _mm256_setzero_si256();
        while i + 8 <= a.len() && j + 8 <= b.len() {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(j) as *const __m256i);
            let m = match_mask8(va, vb);
            acc = _mm256_or_si256(acc, m);
            let amax = *a.get_unchecked(i + 7);
            let bmax = *b.get_unchecked(j + 7);
            if bmax <= amax {
                j += 8;
            }
            if amax <= bmax {
                let mask = _mm256_movemask_ps(_mm256_castsi256_ps(acc)) as usize;
                let idx = _mm256_loadu_si256(PERM8[mask].as_ptr() as *const __m256i);
                let packed = _mm256_permutevar8x32_epi32(va, idx);
                _mm256_storeu_si256(pout.add(k) as *mut __m256i, packed);
                k += mask.count_ones() as usize;
                i += 8;
                acc = _mm256_setzero_si256();
            }
        }
        out.set_len(base + k);
        finish_partial_and_tail(a, b, i, j, movemask_pending_avx2(acc), out, true);
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn movemask_pending_avx2(acc: __m256i) -> usize {
        _mm256_movemask_ps(_mm256_castsi256_ps(acc)) as usize
    }

    /// AVX2 difference (`a \ b`) of strictly sorted slices, appended to
    /// `out`.
    ///
    /// # Safety
    /// Requires AVX2 (checked by the caller via [`have_avx2`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn difference_avx2(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
        let base = out.len();
        out.reserve(a.len() + 8);
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        let pout = out.as_mut_ptr().add(base);
        let mut acc = _mm256_setzero_si256();
        while i + 8 <= a.len() && j + 8 <= b.len() {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(j) as *const __m256i);
            let m = match_mask8(va, vb);
            acc = _mm256_or_si256(acc, m);
            let amax = *a.get_unchecked(i + 7);
            let bmax = *b.get_unchecked(j + 7);
            if bmax <= amax {
                j += 8;
            }
            if amax <= bmax {
                let mask = (_mm256_movemask_ps(_mm256_castsi256_ps(acc)) as usize) ^ 0xFF;
                let idx = _mm256_loadu_si256(PERM8[mask].as_ptr() as *const __m256i);
                let packed = _mm256_permutevar8x32_epi32(va, idx);
                _mm256_storeu_si256(pout.add(k) as *mut __m256i, packed);
                k += mask.count_ones() as usize;
                i += 8;
                acc = _mm256_setzero_si256();
            }
        }
        out.set_len(base + k);
        finish_partial_and_tail(a, b, i, j, movemask_pending_avx2(acc), out, false);
    }

    /// Match mask of `va`'s 4 lanes against any lane of `vb`.
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn match_mask4(va: __m128i, vb: __m128i) -> __m128i {
        let r1 = _mm_shuffle_epi32(vb, 0b00_11_10_01);
        let r2 = _mm_shuffle_epi32(vb, 0b01_00_11_10);
        let r3 = _mm_shuffle_epi32(vb, 0b10_01_00_11);
        let m0 = _mm_cmpeq_epi32(va, vb);
        let m1 = _mm_cmpeq_epi32(va, r1);
        let m2 = _mm_cmpeq_epi32(va, r2);
        let m3 = _mm_cmpeq_epi32(va, r3);
        _mm_or_si128(_mm_or_si128(m0, m1), _mm_or_si128(m2, m3))
    }

    /// SSSE3 intersection of strictly sorted slices, appended to `out`.
    ///
    /// # Safety
    /// Requires SSSE3 (checked by the caller via [`have_ssse3`]).
    #[target_feature(enable = "ssse3")]
    pub unsafe fn intersect_ssse3(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
        let base = out.len();
        out.reserve(a.len().min(b.len()) + 4);
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        let pout = out.as_mut_ptr().add(base);
        let mut acc = _mm_setzero_si128();
        while i + 4 <= a.len() && j + 4 <= b.len() {
            let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(j) as *const __m128i);
            acc = _mm_or_si128(acc, match_mask4(va, vb));
            let amax = *a.get_unchecked(i + 3);
            let bmax = *b.get_unchecked(j + 3);
            if bmax <= amax {
                j += 4;
            }
            if amax <= bmax {
                let mask = _mm_movemask_ps(_mm_castsi128_ps(acc)) as usize;
                let shuf = _mm_loadu_si128(SHUF4[mask].as_ptr() as *const __m128i);
                let packed = _mm_shuffle_epi8(va, shuf);
                _mm_storeu_si128(pout.add(k) as *mut __m128i, packed);
                k += mask.count_ones() as usize;
                i += 4;
                acc = _mm_setzero_si128();
            }
        }
        out.set_len(base + k);
        let pending = _mm_movemask_ps(_mm_castsi128_ps(acc)) as usize;
        finish_partial_and_tail4(a, b, i, j, pending, out, true);
    }

    /// SSSE3 difference (`a \ b`) of strictly sorted slices, appended to
    /// `out`.
    ///
    /// # Safety
    /// Requires SSSE3 (checked by the caller via [`have_ssse3`]).
    #[target_feature(enable = "ssse3")]
    pub unsafe fn difference_ssse3(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
        let base = out.len();
        out.reserve(a.len() + 4);
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        let pout = out.as_mut_ptr().add(base);
        let mut acc = _mm_setzero_si128();
        while i + 4 <= a.len() && j + 4 <= b.len() {
            let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(j) as *const __m128i);
            acc = _mm_or_si128(acc, match_mask4(va, vb));
            let amax = *a.get_unchecked(i + 3);
            let bmax = *b.get_unchecked(j + 3);
            if bmax <= amax {
                j += 4;
            }
            if amax <= bmax {
                let mask = (_mm_movemask_ps(_mm_castsi128_ps(acc)) as usize) ^ 0xF;
                let shuf = _mm_loadu_si128(SHUF4[mask].as_ptr() as *const __m128i);
                let packed = _mm_shuffle_epi8(va, shuf);
                _mm_storeu_si128(pout.add(k) as *mut __m128i, packed);
                k += mask.count_ones() as usize;
                i += 4;
                acc = _mm_setzero_si128();
            }
        }
        out.set_len(base + k);
        let pending = _mm_movemask_ps(_mm_castsi128_ps(acc)) as usize;
        finish_partial_and_tail4(a, b, i, j, pending, out, false);
    }

    /// Completes an 8-lane kernel: resolves the final partially-compared
    /// `a` block (whose lanes may still have matches in `b[j..]`) and runs
    /// the scalar merge on the remainders. A lane already matched against a
    /// passed `b` block cannot reappear in `b[j..]` (strict sortedness), so
    /// the pending mask plus one binary search per unmatched lane is exact.
    fn finish_partial_and_tail(
        a: &[u32],
        b: &[u32],
        mut i: usize,
        j: usize,
        pending: usize,
        out: &mut Vec<u32>,
        keep_matches: bool,
    ) {
        if i + 8 <= a.len() {
            for lane in 0..8 {
                let v = a[i + lane];
                let matched = pending & (1 << lane) != 0 || b[j..].binary_search(&v).is_ok();
                if matched == keep_matches {
                    out.push(v);
                }
            }
            i += 8;
        }
        scalar_tail(&a[i..], &b[j..], out, keep_matches);
    }

    /// 4-lane version of [`finish_partial_and_tail`].
    fn finish_partial_and_tail4(
        a: &[u32],
        b: &[u32],
        mut i: usize,
        j: usize,
        pending: usize,
        out: &mut Vec<u32>,
        keep_matches: bool,
    ) {
        if i + 4 <= a.len() {
            for lane in 0..4 {
                let v = a[i + lane];
                let matched = pending & (1 << lane) != 0 || b[j..].binary_search(&v).is_ok();
                if matched == keep_matches {
                    out.push(v);
                }
            }
            i += 4;
        }
        scalar_tail(&a[i..], &b[j..], out, keep_matches);
    }

    fn scalar_tail(a: &[u32], b: &[u32], out: &mut Vec<u32>, keep_matches: bool) {
        if keep_matches {
            super::intersect_merge(a, b, out);
        } else {
            super::difference_merge(a, b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[3, 4, 5, 8]), vec![3, 5]);
        assert_eq!(intersect(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(intersect(&[1, 2], &[]), Vec::<u32>::new());
        assert_eq!(intersect(&[1, 2], &[3, 4]), Vec::<u32>::new());
    }

    #[test]
    fn intersect_identical() {
        let a = [2, 4, 6, 8];
        assert_eq!(intersect(&a, &a), a.to_vec());
    }

    #[test]
    fn intersect_gallop_path() {
        // Small side much smaller than the large side forces the gallop path.
        let large: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
        let small = [6, 1000, 9999, 19_998];
        assert_eq!(intersect(&small, &large), vec![6, 1000, 19_998]);
        // symmetric argument order
        assert_eq!(intersect(&large, &small), vec![6, 1000, 19_998]);
    }

    #[test]
    fn union_basic() {
        assert_eq!(union(&[1, 3], &[2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(union(&[], &[5]), vec![5]);
        assert_eq!(union(&[5], &[]), vec![5]);
    }

    #[test]
    fn union_many_merges_all() {
        let a = [1u32, 5];
        let b = [2u32, 5, 9];
        let c = [3u32];
        assert_eq!(union_many(vec![&a, &b, &c]), vec![1, 2, 3, 5, 9]);
        assert_eq!(union_many(vec![]), Vec::<u32>::new());
        assert_eq!(union_many(vec![&a[..]]), vec![1, 5]);
    }

    #[test]
    fn union_many_kway_tournament_path() {
        // More than KWAY_THRESHOLD inputs exercises the tournament merge.
        let lists: Vec<Vec<u32>> = (0..8u32).map(|k| (k..200).step_by(7).collect()).collect();
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let got = union_many(refs.clone());
        let mut expected: Vec<u32> = lists.iter().flatten().copied().collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(got, expected);
        assert!(is_strictly_sorted(&got));
    }

    #[test]
    fn union_many_kway_duplicate_heavy() {
        // All inputs identical: the tournament merges must collapse them.
        let a: Vec<u32> = (0..100).collect();
        let refs: Vec<&[u32]> = (0..6).map(|_| a.as_slice()).collect();
        assert_eq!(union_many(refs), a);
    }

    #[test]
    fn difference_basic() {
        assert_eq!(difference(&[1, 2, 3, 4], &[2, 4]), vec![1, 3]);
        assert_eq!(difference(&[1, 2], &[]), vec![1, 2]);
        assert_eq!(difference(&[], &[1]), Vec::<u32>::new());
        assert_eq!(difference(&[1, 2], &[1, 2]), Vec::<u32>::new());
    }

    #[test]
    fn intersect_many_shrinks() {
        let a = [1u32, 2, 3, 4, 5];
        let b = [2u32, 3, 5];
        let c = [3u32, 5, 7];
        assert_eq!(intersect_many(vec![&a, &b, &c]), vec![3, 5]);
        assert_eq!(intersect_many(vec![]), Vec::<u32>::new());
        assert_eq!(intersect_many(vec![&a[..]]), a.to_vec());
    }

    #[test]
    fn intersect_many_early_exit_on_empty() {
        let a = [1u32];
        let b = [2u32];
        let c = [1u32, 2];
        assert_eq!(intersect_many(vec![&a, &b, &c]), Vec::<u32>::new());
    }

    #[test]
    fn intersects_and_subset() {
        assert!(intersects(&[1, 5, 9], &[9, 10]));
        assert!(!intersects(&[1, 5], &[2, 6]));
        assert!(!intersects(&[], &[1]));
        assert!(is_subset(&[2, 4], &[1, 2, 3, 4]));
        assert!(!is_subset(&[2, 6], &[1, 2, 3, 4]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1, 2], &[1]));
    }

    #[test]
    fn intersects_gallop_path() {
        let large: Vec<u32> = (0..10_000).collect();
        assert!(intersects(&[9_999], &large));
        assert!(!intersects(&[10_001], &large));
    }

    #[test]
    fn strictly_sorted_check() {
        assert!(is_strictly_sorted(&[]));
        assert!(is_strictly_sorted(&[1]));
        assert!(is_strictly_sorted(&[1, 2, 9]));
        assert!(!is_strictly_sorted(&[1, 1]));
        assert!(!is_strictly_sorted(&[2, 1]));
    }

    #[test]
    fn kernel_mode_toggles() {
        // HGMATCH_FORCE_SCALAR pins ForceScalar process-wide; the toggle is
        // only observable without it.
        let env_forced = env_forced_scalar();
        if !env_forced {
            assert_eq!(kernel_mode(), KernelMode::Auto);
        }
        set_kernel_mode(KernelMode::ForceScalar);
        assert_eq!(kernel_mode(), KernelMode::ForceScalar);
        set_kernel_mode(KernelMode::Auto);
        if !env_forced {
            assert_eq!(kernel_mode(), KernelMode::Auto);
        }
        assert!(["avx2", "ssse3", "scalar"].contains(&simd_level()));
    }

    /// Deterministic pseudo-random sorted list for SIMD-vs-scalar checks.
    fn pseudo_sorted(seed: u64, len: usize, stride: u32) -> Vec<u32> {
        let mut x = seed | 1;
        let mut v = 0u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                v += 1 + (x % stride as u64) as u32;
                v
            })
            .collect()
    }

    #[test]
    fn simd_matches_scalar_on_varied_shapes() {
        let shapes = [
            (0usize, 0usize),
            (1, 100),
            (7, 9),
            (16, 16),
            (100, 100),
            (128, 131),
            (1000, 1000),
            (1000, 1003),
            (4096, 257),
        ];
        let mut simd_out = Vec::new();
        let mut scalar_out = Vec::new();
        for (la, lb) in shapes {
            for stride in [1u32, 2, 3, 16] {
                let a = pseudo_sorted(la as u64 + 1, la, stride);
                let b = pseudo_sorted(lb as u64 + 99, lb, stride);
                intersect_into(&a, &b, &mut simd_out);
                intersect_into_scalar(&a, &b, &mut scalar_out);
                assert_eq!(simd_out, scalar_out, "intersect {la}x{lb} stride {stride}");
                difference_into(&a, &b, &mut simd_out);
                difference_into_scalar(&a, &b, &mut scalar_out);
                assert_eq!(simd_out, scalar_out, "difference {la}x{lb} stride {stride}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn each_simd_kernel_matches_scalar_directly() {
        // The dispatcher prefers AVX2, so exercise both widths explicitly.
        let mut out = Vec::new();
        let mut expected = Vec::new();
        for (la, lb, stride) in [(64usize, 64usize, 2u32), (333, 217, 3), (1024, 1024, 1)] {
            let a = pseudo_sorted(5, la, stride);
            let b = pseudo_sorted(77, lb, stride);
            intersect_into_scalar(&a, &b, &mut expected);
            if simd::have_avx2() {
                out.clear();
                // SAFETY: AVX2 verified above.
                unsafe { simd::intersect_avx2(&a, &b, &mut out) };
                assert_eq!(out, expected, "avx2 intersect {la}x{lb}");
            }
            if simd::have_ssse3() {
                out.clear();
                // SAFETY: SSSE3 verified above.
                unsafe { simd::intersect_ssse3(&a, &b, &mut out) };
                assert_eq!(out, expected, "ssse3 intersect {la}x{lb}");
            }
            difference_into_scalar(&a, &b, &mut expected);
            if simd::have_avx2() {
                out.clear();
                // SAFETY: AVX2 verified above.
                unsafe { simd::difference_avx2(&a, &b, &mut out) };
                assert_eq!(out, expected, "avx2 difference {la}x{lb}");
            }
            if simd::have_ssse3() {
                out.clear();
                // SAFETY: SSSE3 verified above.
                unsafe { simd::difference_ssse3(&a, &b, &mut out) };
                assert_eq!(out, expected, "ssse3 difference {la}x{lb}");
            }
        }
    }

    #[test]
    fn simd_handles_identical_and_disjoint() {
        let a: Vec<u32> = (0..1000).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..1000).map(|i| i * 2 + 1).collect();
        assert_eq!(intersect(&a, &a), a);
        assert_eq!(intersect(&a, &b), Vec::<u32>::new());
        assert_eq!(difference(&a, &a), Vec::<u32>::new());
        assert_eq!(difference(&a, &b), a);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_kernels_append_after_existing_contents() {
        let a = pseudo_sorted(11, 500, 3);
        let b = pseudo_sorted(42, 500, 3);
        let mut expected = vec![7u32, 8, 9];
        let mut tail = Vec::new();
        intersect_into_scalar(&a, &b, &mut tail);
        expected.extend_from_slice(&tail);
        if simd::have_avx2() {
            let mut out = vec![7u32, 8, 9];
            // SAFETY: AVX2 verified above.
            unsafe { simd::intersect_avx2(&a, &b, &mut out) };
            assert_eq!(out, expected);
        }
        if simd::have_ssse3() {
            let mut out = vec![7u32, 8, 9];
            // SAFETY: SSSE3 verified above.
            unsafe { simd::intersect_ssse3(&a, &b, &mut out) };
            assert_eq!(out, expected);
        }
    }

    /// Fused-vs-oracle check across shapes that exercise block skipping,
    /// partial overlap, and both kernel families.
    #[test]
    fn fused_compressed_kernels_match_oracles() {
        let shapes = [
            (0usize, 100usize, 1u32),
            (100, 0, 3),
            (50, 50, 2),
            (300, 300, 3),
            (1000, 100, 17),
            (100, 1000, 17),
            (5000, 5000, 5),
        ];
        let mut fused = Vec::new();
        let mut oracle = Vec::new();
        for (lc, ll, stride) in shapes {
            let cv = pseudo_sorted(lc as u64 + 7, lc, stride);
            let list = pseudo_sorted(ll as u64 + 31, ll, stride);
            let c = crate::compressed::CompressedPostings::from_sorted(&cv);

            intersect_compressed_into(&c, &list, &mut fused);
            intersect_compressed_into_scalar(&c, &list, &mut oracle);
            assert_eq!(fused, oracle, "intersect {lc}x{ll} stride {stride}");

            difference_compressed_list_into(&c, &list, &mut fused);
            difference_into_scalar(&cv, &list, &mut oracle);
            assert_eq!(fused, oracle, "c\\list {lc}x{ll} stride {stride}");
        }
    }

    #[test]
    fn fused_kernels_handle_subsets_and_disjoint_blocks() {
        // c spans three widely separated blocks; the list sits between them.
        let mut cv: Vec<u32> = (0..300).collect();
        cv.extend(100_000..100_300u32);
        cv.extend(900_000..900_300u32);
        let c = crate::compressed::CompressedPostings::from_sorted(&cv);
        let between: Vec<u32> = (50_000..50_100).collect();
        let mut out = Vec::new();
        intersect_compressed_into(&c, &between, &mut out);
        assert!(out.is_empty());
        difference_compressed_list_into(&c, &between, &mut out);
        assert_eq!(out, cv);

        // Subtracting the whole set leaves nothing.
        difference_compressed_list_into(&c, &cv, &mut out);
        assert!(out.is_empty());
    }
}
