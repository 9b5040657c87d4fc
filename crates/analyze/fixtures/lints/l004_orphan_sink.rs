// Seeded true positive for PA-L004: a component holds a TelemetrySink
// field but exposes no installer, so the sink stays a no-op forever.
// Not compiled -- consumed as text by the fixture tests.

pub struct OrphanStats {
    pub pokes: Counter,
}

pub struct Orphan {
    stats: OrphanStats,
    sink: TelemetrySink,
}

impl Orphan {
    pub fn poke(&mut self) {
        self.stats.pokes.inc();
        self.sink.emit(|| Event::Poke);
    }
}
