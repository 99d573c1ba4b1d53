// adc-lint: allow(shard-safety)
fn nothing_shared_here() {}
