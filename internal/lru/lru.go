// Package lru is the bounded registry behind the solve service's live
// factors and the cluster gateway's jobs: a map that keeps at most a fixed
// number of entries and, past that, evicts the least recently used ones,
// skipping any entry its owner reports busy (a factorization still
// building it, a request still using it). A busy entry is never evicted,
// so the map may exceed its bound until one frees.
//
// A Cache does no locking: its owner's mutex guards it, together with the
// state the busy predicate reads.
package lru

import "container/list"

// Cache maps keys to values under an entry bound and an LRU rule.
type Cache[K comparable, V any] struct {
	max   int
	busy  func(V) bool
	items map[K]*list.Element
	order list.List // front = most recently used; elements hold *entry[K, V]
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache that keeps at most max entries whose eviction skips
// values for which busy reports true (nil: nothing is busy).
func New[K comparable, V any](max int, busy func(V) bool) *Cache[K, V] {
	if busy == nil {
		busy = func(V) bool { return false }
	}
	return &Cache[K, V]{max: max, busy: busy, items: make(map[K]*list.Element)}
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Get returns key's value and makes it the most recently used entry.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek returns key's value without touching the recency order.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*entry[K, V]).val, true
}

// Add stores val under key as the most recently used entry, replacing any
// value key held, then trims the cache. It returns the evicted values,
// least recently used first.
func (c *Cache[K, V]) Add(key K, val V) []V {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&entry[K, V]{key, val})
	}
	return c.Trim()
}

// Trim evicts from the cold end, skipping busy entries, until the bound
// holds or only busy entries remain, and returns the evicted values, least
// recently used first. An owner calls it when an entry stops being busy,
// so an overshoot that busy entries forced does not outlive them.
func (c *Cache[K, V]) Trim() []V {
	var evicted []V
	for el := c.order.Back(); el != nil && len(c.items) > c.max; {
		e := el.Value.(*entry[K, V])
		prev := el.Prev()
		if !c.busy(e.val) {
			c.order.Remove(el)
			delete(c.items, e.key)
			evicted = append(evicted, e.val)
		}
		el = prev
	}
	return evicted
}

// Remove deletes key, if present.
func (c *Cache[K, V]) Remove(key K) {
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Values returns every value, most recently used first.
func (c *Cache[K, V]) Values() []V {
	vs := make([]V, 0, len(c.items))
	for el := c.order.Front(); el != nil; el = el.Next() {
		vs = append(vs, el.Value.(*entry[K, V]).val)
	}
	return vs
}
