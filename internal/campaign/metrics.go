package campaign

import "ensemblekit/internal/telemetry"

// serviceMetrics bundles the service's telemetry handles. They are the
// only counter store: Stats is a view over them, and Config.Recorder is
// mirrored from them. The handles live in Config.Metrics, or in a private
// registry nobody scrapes when that is nil.
type serviceMetrics struct {
	submitted      *telemetry.Counter
	rejected       *telemetry.Counter
	dedups         *telemetry.Counter
	cacheHits      *telemetry.Counter
	diskHits       *telemetry.Counter
	fleetHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	finished       *telemetry.CounterVec // by terminal status
	queueDepth     *telemetry.Gauge
	queueCap       *telemetry.Gauge
	running        *telemetry.Gauge
	workers        *telemetry.Gauge
	cacheItems     *telemetry.Gauge
	cacheBytes     *telemetry.Gauge
	busySeconds    *telemetry.Counter
	queueWait      *telemetry.Histogram
	execLatency    *telemetry.Histogram
	events         *telemetry.Counter
	subscribers    *telemetry.Gauge
	subsDropped    *telemetry.Counter
	retries        *telemetry.Counter
	quarantined    *telemetry.Counter
	workerPanics   *telemetry.Counter
	cacheCorrupt   *telemetry.Counter
	journalAppends *telemetry.Counter
	journalReplays *telemetry.Counter
	journalCompact *telemetry.Counter
	fastpathHits   *telemetry.Counter
	coreSeconds    *telemetry.CounterVec // by component class and busy/idle state
	coreSaved      *telemetry.CounterVec // by serving tier
	spansDropped   *telemetry.Counter
}

func newServiceMetrics(r *telemetry.Registry) serviceMetrics {
	if r == nil {
		r = telemetry.NewRegistry()
	}
	return serviceMetrics{
		submitted: r.Counter("campaign_submitted_total",
			"Admitted submissions, including cache hits and dedup attaches."),
		rejected: r.Counter("campaign_queue_rejected_total",
			"Submissions bounced with ErrQueueFull (non-blocking backpressure)."),
		dedups: r.Counter("campaign_dedup_total",
			"Submissions attached to an identical in-flight job (singleflight)."),
		cacheHits: r.Counter("campaign_cache_hits_total",
			"Submissions answered from the result cache."),
		diskHits: r.Counter("campaign_cache_disk_hits_total",
			"Cache hits served by the on-disk tier."),
		fleetHits: r.Counter("campaign_cache_fleet_hits_total",
			"Cache hits served by a peer's cache over the pool fabric."),
		cacheMisses: r.Counter("campaign_cache_misses_total",
			"Submissions that enqueued a new execution."),
		finished: r.CounterVec("campaign_jobs_finished_total",
			"Executed jobs by terminal status.", "status"),
		queueDepth: r.Gauge("campaign_queue_depth",
			"Jobs waiting for a worker."),
		queueCap: r.Gauge("campaign_queue_capacity",
			"Configured queue bound (Submit rejects beyond it)."),
		running: r.Gauge("campaign_running_jobs",
			"Jobs occupying a worker right now."),
		workers: r.Gauge("campaign_workers",
			"Size of the worker pool."),
		cacheItems: r.Gauge("campaign_cache_entries",
			"Entries in the in-memory result-cache tier."),
		cacheBytes: r.Gauge("campaign_cache_bytes",
			"Bytes held by the in-memory result-cache tier."),
		busySeconds: r.Counter("campaign_worker_busy_seconds_total",
			"Cumulative wall time workers spent executing jobs."),
		queueWait: r.Histogram("campaign_queue_wait_seconds",
			"Wall time from enqueue to worker pickup.", nil),
		execLatency: r.Histogram("campaign_execute_seconds",
			"Wall time from worker pickup to job completion.", nil),
		events: r.Counter("campaign_events_published_total",
			"Job state-transition events published on the event stream."),
		subscribers: r.Gauge("campaign_event_subscribers",
			"Live event-stream subscribers."),
		subsDropped: r.Counter("campaign_event_subscribers_dropped_total",
			"Event subscribers dropped for falling behind their buffer."),
		retries: r.Counter("campaign_job_retries_total",
			"Transiently-failed jobs re-enqueued under the retry policy."),
		quarantined: r.Counter("campaign_jobs_quarantined_total",
			"Jobs failed terminally after exhausting retry attempts."),
		workerPanics: r.Counter("campaign_worker_panics_total",
			"Job panics recovered by the worker pool."),
		cacheCorrupt: r.Counter("campaign_cache_corrupt_total",
			"Disk-cache entries evicted on checksum mismatch."),
		journalAppends: r.Counter("campaign_journal_appends_total",
			"Records fsync'd to the write-ahead log."),
		journalReplays: r.Counter("campaign_journal_replayed_total",
			"Jobs re-enqueued from the journal at startup."),
		journalCompact: r.Counter("campaign_journal_compactions_total",
			"Snapshot compactions of the write-ahead log."),
		fastpathHits: r.Counter("campaign_fastpath_hits_total",
			"Jobs served by the timeline kernel instead of the event engine."),
		coreSeconds: r.CounterVec("campaign_core_seconds_total",
			"Simulated core-seconds of jobs executed on this node, by component class and busy/idle state.",
			"class", "state"),
		coreSaved: r.CounterVec("campaign_core_seconds_saved_total",
			"Simulated core-seconds avoided on this node, by serving tier (cache tiers substitute for execution; plancache and fastpath are overlapping credits).",
			"tier"),
		spansDropped: r.Counter("tracing_spans_dropped_total",
			"Spans the trace store's per-trace cap dropped; a trace that lost spans reports droppedSpans on its spans and critical-path responses."),
	}
}

// setCacheLocked mirrors the memory tier's occupancy; called under s.mu.
func (m *serviceMetrics) setCacheLocked(entries int, bytes int64) {
	m.cacheItems.Set(float64(entries))
	m.cacheBytes.Set(float64(bytes))
}

// Stats is a snapshot of the service's counters.
type Stats struct {
	// Submitted counts Submit calls that were admitted (including cache
	// hits and deduplicated attaches).
	Submitted int64 `json:"submitted"`
	// Completed, Failed and Cancelled count finished executions.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// CacheHits counts submissions answered from the cache; DiskHits and
	// FleetHits are the subsets served by the on-disk tier and by a
	// peer's cache over the pool fabric (the remainder is the in-memory
	// tier). CacheMisses counts submissions that enqueued a new
	// execution.
	CacheHits   int64 `json:"cacheHits"`
	DiskHits    int64 `json:"diskHits"`
	FleetHits   int64 `json:"fleetHits"`
	CacheMisses int64 `json:"cacheMisses"`
	// Dedups counts submissions attached to an identical in-flight job
	// (singleflight).
	Dedups int64 `json:"dedups"`
	// Rejected counts Submit calls bounced with ErrQueueFull.
	Rejected int64 `json:"rejected"`
	// Retries counts re-enqueues of transiently-failed jobs; Quarantined
	// counts jobs failed terminally after exhausting retry attempts.
	Retries     int64 `json:"retries"`
	Quarantined int64 `json:"quarantined"`
	// WorkerPanics counts job panics recovered by the worker pool.
	WorkerPanics int64 `json:"workerPanics"`
	// CacheCorrupt counts disk-cache entries evicted on checksum mismatch.
	CacheCorrupt int64 `json:"cacheCorrupt"`
	// JournalReplayed counts jobs re-enqueued from the journal at startup.
	JournalReplayed int64 `json:"journalReplayed"`
	// FastPathHits counts jobs served by the timeline kernel instead of
	// the event engine.
	FastPathHits int64 `json:"fastPathHits"`
	// QueueDepth and Running describe the pool right now; QueueCapacity
	// is the configured bound the depth saturates at.
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	Running       int `json:"running"`
	Workers       int `json:"workers"`
	// CacheEntries and CacheBytes describe the in-memory cache tier.
	CacheEntries int   `json:"cacheEntries"`
	CacheBytes   int64 `json:"cacheBytes"`
}

// HitRate returns the fraction of cache-answerable submissions served
// from the cache (hits / (hits + misses)); 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stats reads the counters: a view over the telemetry handles, so it
// cannot disagree with a /metrics scrape of the same instant.
func (s *Service) Stats() Stats {
	m := &s.metrics
	return Stats{
		Submitted:       int64(m.submitted.Value()),
		Completed:       int64(m.finished.With(string(StatusDone)).Value()),
		Failed:          int64(m.finished.With(string(StatusFailed)).Value()),
		Cancelled:       int64(m.finished.With(string(StatusCancelled)).Value()),
		CacheHits:       int64(m.cacheHits.Value()),
		DiskHits:        int64(m.diskHits.Value()),
		FleetHits:       int64(m.fleetHits.Value()),
		CacheMisses:     int64(m.cacheMisses.Value()),
		Dedups:          int64(m.dedups.Value()),
		Rejected:        int64(m.rejected.Value()),
		Retries:         int64(m.retries.Value()),
		Quarantined:     int64(m.quarantined.Value()),
		WorkerPanics:    int64(m.workerPanics.Value()),
		CacheCorrupt:    int64(m.cacheCorrupt.Value()),
		JournalReplayed: int64(m.journalReplays.Value()),
		FastPathHits:    int64(m.fastpathHits.Value()),
		QueueDepth:      int(m.queueDepth.Value()),
		QueueCapacity:   int(m.queueCap.Value()),
		Running:         int(m.running.Value()),
		Workers:         int(m.workers.Value()),
		CacheEntries:    int(m.cacheItems.Value()),
		CacheBytes:      int64(m.cacheBytes.Value()),
	}
}
