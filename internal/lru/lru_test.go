package lru

import (
	"slices"
	"testing"
)

// keys lists c's keys, most recently used first.
func keys(c *Cache[string, *int]) []string {
	var ks []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		ks = append(ks, el.Value.(*entry[string, *int]).key)
	}
	return ks
}

func TestCache(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name        string
		max         int
		busy        []string // keys whose values report busy
		ops         func(c *Cache[string, *int]) []*int
		wantKeys    []string
		wantEvicted int
	}{
		{
			name: "evicts the least recently added",
			max:  2,
			ops: func(c *Cache[string, *int]) []*int {
				c.Add("a", new(int))
				c.Add("b", new(int))
				return c.Add("c", new(int))
			},
			wantKeys: []string{"c", "b"}, wantEvicted: 1,
		},
		{
			name: "get promotes, peek does not",
			max:  2,
			ops: func(c *Cache[string, *int]) []*int {
				c.Add("a", new(int))
				c.Add("b", new(int))
				c.Get("a")
				c.Peek("b")
				return c.Add("c", new(int))
			},
			wantKeys: []string{"c", "a"}, wantEvicted: 1,
		},
		{
			name: "busy entries are skipped",
			max:  2,
			busy: []string{"a"},
			ops: func(c *Cache[string, *int]) []*int {
				c.Add("a", new(int))
				c.Add("b", new(int))
				return c.Add("c", new(int))
			},
			wantKeys: []string{"c", "a"}, wantEvicted: 1,
		},
		{
			name: "only busy entries left: the bound gives",
			max:  1,
			busy: []string{"a", "b"},
			ops: func(c *Cache[string, *int]) []*int {
				c.Add("a", new(int))
				return c.Add("b", new(int))
			},
			wantKeys: []string{"b", "a"}, wantEvicted: 0,
		},
		{
			name: "re-adding a key replaces it in place",
			max:  2,
			ops: func(c *Cache[string, *int]) []*int {
				c.Add("a", new(int))
				c.Add("b", new(int))
				return c.Add("a", new(int))
			},
			wantKeys: []string{"a", "b"}, wantEvicted: 0,
		},
		{
			name: "remove frees a slot",
			max:  2,
			ops: func(c *Cache[string, *int]) []*int {
				c.Add("a", new(int))
				c.Add("b", new(int))
				c.Remove("a")
				c.Remove("missing")
				return c.Add("c", new(int))
			},
			wantKeys: []string{"c", "b"}, wantEvicted: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var c *Cache[string, *int]
			c = New[string, *int](tc.max, func(v *int) bool {
				for _, k := range tc.busy {
					if w, ok := c.Peek(k); ok && w == v {
						return true
					}
				}
				return false
			})
			ev := tc.ops(c)
			if got := keys(c); !slices.Equal(got, tc.wantKeys) {
				t.Errorf("keys = %v, want %v", got, tc.wantKeys)
			}
			if len(ev) != tc.wantEvicted {
				t.Errorf("evicted %d, want %d", len(ev), tc.wantEvicted)
			}
			if c.Len() != len(tc.wantKeys) || len(c.Values()) != len(tc.wantKeys) {
				t.Errorf("Len %d, Values %d, want %d", c.Len(), len(c.Values()), len(tc.wantKeys))
			}
		})
	}
}

func TestTrimAfterBusyEnds(t *testing.T) {
	t.Parallel()
	busy := true
	c := New[string, *int](1, func(*int) bool { return busy })
	c.Add("a", new(int))
	if ev := c.Add("b", new(int)); len(ev) != 0 || c.Len() != 2 {
		t.Fatalf("all busy: evicted %d, len %d; want 0 and 2", len(ev), c.Len())
	}
	busy = false
	if ev := c.Trim(); len(ev) != 1 || c.Len() != 1 {
		t.Fatalf("trim: evicted %d, len %d; want 1 and 1", len(ev), c.Len())
	}
	if _, ok := c.Peek("b"); !ok {
		t.Fatal("trim evicted the most recent entry")
	}
}

func TestEvictedValuesAreTheRemovedOnes(t *testing.T) {
	t.Parallel()
	c := New[string, *int](1, nil)
	a := new(int)
	c.Add("a", a)
	ev := c.Add("b", new(int))
	if len(ev) != 1 || ev[0] != a {
		t.Fatalf("evicted %v, want [a]", ev)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted key still present")
	}
}
