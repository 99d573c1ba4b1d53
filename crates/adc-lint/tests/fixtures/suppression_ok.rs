pub struct Shard {
    // Invariant: only the owning shard touches it. adc-lint: allow(shard-safety)
    scratch: std::cell::RefCell<Vec<u64>>,
}
