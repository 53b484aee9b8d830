//! Registry whose one counter is live and documented.

registry! {
    /// Bumped by `tool::tick`, documented in DESIGN.md.
    bump_live_counter, live_counter;
}
