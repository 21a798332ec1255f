package store

// Used returns a tenant's retained bytes and checkpoint count.
func (l *QuotaLedger) Used(tenant string) (bytes uint64, checkpoints int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used[tenant], l.count[tenant]
}
