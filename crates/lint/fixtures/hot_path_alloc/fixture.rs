//! Seeded hot-path allocation violations.  `hot_loop` is designated hot;
//! `cold_setup` is not and may allocate freely.

struct Sim {
    data: Vec<u64>,
    shared: std::sync::Arc<Vec<u64>>,
}

impl Sim {
    fn hot_loop(&mut self) {
        let staged = Vec::new();
        self.data = staged;
        let mapped: Vec<u64> = self.data.iter().map(|x| x + 1).collect();
        self.data = mapped;
        let boxed = Box::new(0u64);
        let _ = *boxed;
        let shared = Arc::clone(&self.shared);
        let _ = shared.len();
        // lint:allow(hot-path-alloc): scratch label built once per sweep, not per event
        let label = format!("sim");
        let _ = label;
    }

    fn cold_setup(&mut self) {
        self.data = vec![0; 8];
    }
}
