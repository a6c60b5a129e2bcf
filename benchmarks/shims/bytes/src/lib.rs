//! Empty: `coop-runtime` and `coop-workloads` depend on `bytes` but use no item of it.
