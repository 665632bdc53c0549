// Fixture: `#[cfg(test)]` on items without a body. Each attribute exempts
// only its own `;`-terminated item, never the function that follows it.
// Never compiled.

#[cfg(test)]
use std::fmt::Debug;

pub fn prod(x: Option<u32>) -> u32 {
    x.unwrap() // R5: production code after a test-only `use`
}

#[cfg(test)]
const SAMPLES: [u32; 2] = [1; 2];

pub fn parse_sample(s: &str) -> u32 {
    s.parse().expect("sample") // R5: production code after a test-only const
}

pub struct Store;

impl Store {
    // abr-lint: hot-path
    pub fn decide(&self) -> usize {
        scratch_len()
    }
}

#[cfg(test)]
mod tests;

fn scratch_len() -> usize {
    let v: Vec<u8> = Vec::new(); // R7: reachable from Store::decide
    v.len()
}
