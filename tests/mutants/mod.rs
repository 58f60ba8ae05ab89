//! Seeded byte mutators shared by the hostile-input fuzz harness and the
//! container golden fixture. The fixture replays the harness's mutant
//! streams, so both must draw from the same generator in the same order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbadet_ovba::VbaProjectBuilder;

/// XORs 1–8 random bytes of `base` with non-zero masks.
pub fn flip_bytes(base: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = base.to_vec();
    let flips = rng.gen_range(1..=8usize);
    for _ in 0..flips {
        let i = rng.gen_range(0..out.len());
        out[i] ^= rng.gen_range(1..=255u8);
    }
    out
}

/// A strict, non-empty prefix of `base`.
pub fn truncate(base: &[u8], rng: &mut StdRng) -> Vec<u8> {
    base[..rng.gen_range(1..base.len())].to_vec()
}

/// Overwrites up to 256 bytes of `base` with a run copied from `donor`.
pub fn splice(base: &[u8], donor: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = base.to_vec();
    let len = rng.gen_range(1..=256usize).min(donor.len());
    let src = rng.gen_range(0..=donor.len() - len);
    let dst = rng.gen_range(0..out.len());
    let end = (dst + len).min(out.len());
    out[dst..end].copy_from_slice(&donor[src..src + (end - dst)]);
    out
}

/// The 500 seeded mutants of a one-module `vbaProject.bin`, in the order
/// the fuzz harness draws them and the fixture prints its `raw` lines.
pub fn raw_project_mutants() -> Vec<Vec<u8>> {
    let mut b = VbaProjectBuilder::new("P");
    b.add_module(
        "Module1",
        "Sub A()\r\n    x = Chr(65) & Chr(66)\r\nEnd Sub\r\n",
    );
    let base = b.build().unwrap();
    let mut rng = StdRng::seed_from_u64(0xBADC0DE);
    (0..500)
        .map(|_| match rng.gen_range(0..3u8) {
            0 => flip_bytes(&base, &mut rng),
            1 => truncate(&base, &mut rng),
            _ => splice(&base, &base, &mut rng),
        })
        .collect()
}
