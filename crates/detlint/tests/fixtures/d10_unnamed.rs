//! Fixture: D10 test-only production code — hits, callers, allows.
pub fn from_bin() {} // ok: a program calls it
pub struct FromExample; // ok: an example names it
pub const FROM_BENCH: u32 = 1; // ok: a bench reads it
pub fn from_flowbench() {} // ok: the benchmark calls it
pub fn only_tests_dir() {} // line 6: D10 (only tests/ calls it)
pub fn only_cfg_test() {} // line 7: D10 (only a #[cfg(test)] module calls it)
pub fn only_reexported() {} // line 8: D10 (only a `pub use` names it)
pub fn width() -> u32 { 0 } // line 9: D10 (only a `.width` field access)
pub const fn const_only_tests() -> u32 { 1 } // line 10: D10
pub(crate) fn crate_only() {} // ok: not bare `pub`
pub fn used_here() {} // ok: non-test code of this file calls it
pub fn called_as_method() {} // ok: `x.called_as_method()` names it

pub struct Widget {
    size: u32,
}

impl std::fmt::Display for Widget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        used_here();
        write!(f, "{}", self.size)
    }
}

// detlint::allow(D10): oracle for tests/oracle.rs
pub fn oracle() {} // ok: allowed with a reason

// detlint::allow(D10)
pub fn bare_allow() {} // line 30: D10 (the bare allow on 29 suppresses nothing)

#[cfg(test)]
mod tests {
    pub fn in_test_module() {} // ok: test spans hold no candidates

    #[test]
    fn calls() {
        super::only_cfg_test();
        in_test_module();
    }
}

impl Widget {
    pub fn size(&self) -> u32 { // line 44: D10 (only the field `size:` and `.size` name it)
        self.size
    }
}
