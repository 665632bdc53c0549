// Fixture: `#[cfg(test)]` on a struct field and on an enum variant exempts
// only that field or variant, never the function that follows the type.
// Commas in a test helper's generic parameters or where clause do not end
// its exemption early. Never compiled.

pub struct Probe {
    pub live: u32,
    #[cfg(test)]
    pub probe: std::collections::BTreeMap<u32, u32>,
}

pub fn prod(x: Option<u32>) -> u32 { x.unwrap() }

pub enum Mode {
    Live,
    #[cfg(test)]
    Probe(u32, u32)
}

pub fn parse_mode(s: &str) -> u32 {
    s.parse().expect("mode") // R5: production code after a test-only variant
}

#[cfg(test)]
fn helper<T: Clone, U>(t: T, _u: U) -> T {
    Some(t).unwrap()
}

#[cfg(test)]
fn bounded<T, U>(t: T, _u: U) -> T
where
    T: Clone,
    U: Default,
{
    Some(t).expect("bounded")
}
