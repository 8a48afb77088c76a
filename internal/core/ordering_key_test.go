package core

import (
	"testing"

	ord "blockfanout/internal/order"
)

// Key values computed while the zero Ordering still meant the identity
// ordering. Warm start selects snapshots by key alone, so none of them may
// ever again name a minimum-degree plan except the gateway's, which
// already resolved the zero Ordering to MinDegree itself.
const (
	identityZeroKey   = 0xa09d945a1cd8d6e5 // Options{}: identity ordering
	identityServerKey = 0x1102eaa4da614ad5 // the default server's options: identity ordering
	gatewayKey        = 0x9692c77b0f16e051 // the default gateway's options: MinDegree
)

func TestConfigKeyResolvesDefaultOrdering(t *testing.T) {
	zero, mindeg := Options{}.ConfigKey(), Options{Ordering: ord.MinDegree}.ConfigKey()
	if zero != mindeg {
		t.Fatalf("Options{} key %#x differs from the explicit MinDegree key %#x", zero, mindeg)
	}
	natural := Options{Ordering: ord.Natural}.ConfigKey()
	for name, k := range map[string]uint64{"Options{}": zero, "MinDegree": mindeg, "the old zero-value": identityZeroKey} {
		if natural == k {
			t.Fatalf("explicit Natural key %#x equals the %s key", natural, name)
		}
	}
	for _, o := range []Options{{BlockSize: DefaultBlockSize}, {BlockSize: DefaultBlockSize, Ordering: ord.Natural}} {
		if k := o.ConfigKey(); k == identityServerKey {
			t.Fatalf("%+v reuses the old identity-ordered server key %#x", o, k)
		}
	}
	for _, o := range []Options{{BlockSize: DefaultBlockSize}, {BlockSize: DefaultBlockSize, Ordering: ord.MinDegree}} {
		if k := o.ConfigKey(); k != gatewayKey {
			t.Fatalf("%+v key %#x, want the gateway's unchanged %#x", o, k, uint64(gatewayKey))
		}
	}
}
