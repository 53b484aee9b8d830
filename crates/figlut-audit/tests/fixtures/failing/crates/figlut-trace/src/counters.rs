//! Registry with a dead, undocumented counter.

registry! {
    /// Never bumped anywhere, never documented.
    bump_dead_counter, dead_counter;
}
