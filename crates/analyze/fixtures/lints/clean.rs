// Clean fixture: passes every lint rule.
// Not compiled -- consumed as text by the fixture tests.

pub struct GoodStats {
    pub pokes: Counter,
}

pub struct Good {
    stats: GoodStats,
    sink: TelemetrySink,
}

impl Good {
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    pub fn poke(&mut self) {
        self.stats.pokes.inc();
        self.sink.emit(|| Event::Poke);
    }
}
