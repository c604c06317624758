package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/radio"
)

func digestSampleConfig() HighwayConfig {
	return HighwayConfig{
		Rounds:           3,
		Cars:             10,
		Common:           Common{Seed: 42, Arm: "coop"},
		SpeedMPS:         8.3,
		HeadwayM:         25,
		PacketsPerSecond: 10,
		PayloadBytes:     500,
		Coop:             true,
		Modulation:       radio.DSSS2Mbps,
		RoadLengthM:      2000,
		APSetbackM:       10,
		CoopTime:         5 * time.Second,
	}
}

// TestConfigDigestDeterministic: the digest is a pure function of the
// config value — two equal values digest identically.
func TestConfigDigestDeterministic(t *testing.T) {
	a, b := digestSampleConfig(), digestSampleConfig()
	da, db := ConfigDigest(a), ConfigDigest(b)
	if da != db {
		t.Fatalf("equal configs digest differently: %s vs %s", da, db)
	}
	if len(da) != 64 {
		t.Fatalf("digest %q is not sha256 hex", da)
	}
}

// TestConfigDigestSeesEveryField: perturbing any family field —
// numeric, bool, duration — must change the digest, or the result store
// would serve a stale unit for the changed config. The shared fields are
// covered for every family by TestConfigDigestSeesCommonEverywhere.
func TestConfigDigestSeesEveryField(t *testing.T) {
	base := ConfigDigest(digestSampleConfig())
	perturb := map[string]func(*HighwayConfig){
		"Cars":     func(c *HighwayConfig) { c.Cars++ },
		"SpeedMPS": func(c *HighwayConfig) { c.SpeedMPS += 1e-9 },
		"Coop":     func(c *HighwayConfig) { c.Coop = false },
		"CoopTime": func(c *HighwayConfig) { c.CoopTime += time.Nanosecond },
	}
	for field, mutate := range perturb {
		cfg := digestSampleConfig()
		mutate(&cfg)
		if got := ConfigDigest(cfg); got == base {
			t.Errorf("changing %s does not change the digest", field)
		}
	}
}

// commonPerturbations moves every field of Common, down to each field of
// the medium config inside it, off its default. FastChannel changes
// results (statistically equivalent, not byte-identical) and Arm forks
// the channel randomness, so a digest blind to either would let a stored
// unit satisfy a sweep it does not belong to; Seed roots every stream;
// the medium fields never change traces, but distinct configs must still
// be distinct cache keys.
var commonPerturbations = map[string]func(*Common){
	"Seed":                    func(c *Common) { c.Seed++ },
	"Arm":                     func(c *Common) { c.Arm = "solo" },
	"FastChannel":             func(c *Common) { c.FastChannel = !c.FastChannel },
	"Medium.Exhaustive":       func(c *Common) { c.Medium.Exhaustive = !c.Medium.Exhaustive },
	"Medium.RefreshInterval":  func(c *Common) { c.Medium.RefreshInterval += time.Nanosecond },
	"Medium.MaxSpeedMPS":      func(c *Common) { c.Medium.MaxSpeedMPS += 1e-9 },
	"Medium.CellM":            func(c *Common) { c.Medium.CellM += 1e-9 },
	"Medium.MinIndexStations": func(c *Common) { c.Medium.MinIndexStations-- },
}

// familyConfigs returns every scenario family's default config behind a
// pointer, so a test can reach its embedded Common.
func familyConfigs() map[string]interface{ Shared() *Common } {
	testbed, highway, corridor := DefaultTestbed(), DefaultHighway(), DefaultCorridor()
	twoway, download, grid := DefaultTwoWay(), DefaultDownload(), DefaultTrafficGrid()
	stopgo, demand, city := DefaultStopGo(), DefaultCityDemand(), DefaultCityScale()
	return map[string]interface{ Shared() *Common }{
		"testbed": &testbed, "highway": &highway, "corridor": &corridor,
		"twoway": &twoway, "download": &download, "trafficgrid": &grid,
		"stopgo": &stopgo, "citydemand": &demand, "cityscale": &city,
	}
}

// TestConfigDigestSeesCommonEverywhere: every shared field, in every
// scenario family's config, feeds the digest that addStoredRounds keys
// stored results by.
func TestConfigDigestSeesCommonEverywhere(t *testing.T) {
	if n := len(familyConfigs()); n != 9 {
		t.Fatalf("%d families, want 9", n)
	}
	for family := range familyConfigs() {
		for field, mutate := range commonPerturbations {
			cfg := familyConfigs()[family]
			base := ConfigDigest(cfg)
			mutate(cfg.Shared())
			if ConfigDigest(cfg) == base {
				t.Errorf("%s: %s invisible to the config digest", family, field)
			}
		}
	}
}

// TestCommonFieldCanary pins the field lists of Common and
// mac.MediumConfig to commonPerturbations: a new shared knob fails here
// until the digest table perturbs it, so it lands with its test.
func TestCommonFieldCanary(t *testing.T) {
	const wantCommon, wantMedium = 4, 5
	common, medium := reflect.TypeOf(Common{}), reflect.TypeOf(mac.MediumConfig{})
	if common.NumField() != wantCommon || medium.NumField() != wantMedium {
		t.Fatalf("Common has %d fields and mac.MediumConfig %d, want %d and %d: add the new field to commonPerturbations and update the counts",
			common.NumField(), medium.NumField(), wantCommon, wantMedium)
	}
	var fields []string
	for i := 0; i < common.NumField(); i++ {
		if f := common.Field(i); f.Type != medium {
			fields = append(fields, f.Name)
		}
	}
	for i := 0; i < medium.NumField(); i++ {
		fields = append(fields, "Medium."+medium.Field(i).Name)
	}
	for _, f := range fields {
		if commonPerturbations[f] == nil {
			t.Errorf("commonPerturbations does not perturb %s", f)
		}
	}
}

// TestRadioConfigFieldCount pins radio.Config's field list: ConfigDigest
// walks whatever struct it is handed, but scenario configs embed the
// channel settings as scalar fields plus TuneChannel hooks rather than a
// radio.Config value, so a newly added channel knob (like FastMode) must
// be consciously plumbed. Bump the count AND mirror the knob into the
// scenario configs (or their channel builders) when radio.Config grows.
func TestRadioConfigFieldCount(t *testing.T) {
	const want = 12 // incl. FastMode (PR 10)
	if got := reflect.TypeOf(radio.Config{}).NumField(); got != want {
		t.Fatalf("radio.Config has %d fields, expected %d — plumb the new field through the scenario configs and update this count", got, want)
	}
}

// TestConfigDigestDistinguishesInterfaceImpls: two Selection policies
// with identical field values must not alias — the dynamic type is part
// of the digest.
func TestConfigDigestDistinguishesInterfaceImpls(t *testing.T) {
	best := TestbedConfig{Selection: carq.SelectBestK{K: 2}}
	fresh := TestbedConfig{Selection: carq.SelectFreshestK{K: 2}}
	if ConfigDigest(best) == ConfigDigest(fresh) {
		t.Fatal("distinct Selection implementations alias in the digest")
	}
	if ConfigDigest(best) == ConfigDigest(TestbedConfig{Selection: carq.SelectBestK{K: 3}}) {
		t.Fatal("Selection field values invisible to the digest")
	}
	if ConfigDigest(best) == ConfigDigest(TestbedConfig{}) {
		t.Fatal("nil vs non-nil Selection aliases in the digest")
	}
}

// TestConfigDigestDistinguishesFuncs: function-valued fields digest by
// symbol, so swapping one named hook for another changes the key.
func TestConfigDigestDistinguishesFuncs(t *testing.T) {
	type hooked struct {
		Tune func(int) int
	}
	double := func(x int) int { return 2 * x }
	triple := func(x int) int { return 3 * x }
	d0 := ConfigDigest(hooked{})
	d1 := ConfigDigest(hooked{Tune: double})
	d2 := ConfigDigest(hooked{Tune: triple})
	if d0 == d1 || d1 == d2 {
		t.Fatalf("func fields invisible to digest: nil=%s double=%s triple=%s", d0, d1, d2)
	}
	if ConfigDigest(hooked{Tune: double}) != d1 {
		t.Fatal("same func digests unstably")
	}
}

// TestConfigDigestCollections: slices, maps and pointers participate,
// including the nil/empty distinction and map order independence.
func TestConfigDigestCollections(t *testing.T) {
	type coll struct {
		Xs []int
		M  map[string]float64
		P  *int
	}
	three := 3
	if ConfigDigest(coll{Xs: nil}) == ConfigDigest(coll{Xs: []int{}}) {
		t.Error("nil and empty slice alias")
	}
	if ConfigDigest(coll{Xs: []int{1, 2}}) == ConfigDigest(coll{Xs: []int{2, 1}}) {
		t.Error("slice order invisible")
	}
	if ConfigDigest(coll{M: map[string]float64{"a": 1, "b": 2}}) !=
		ConfigDigest(coll{M: map[string]float64{"b": 2, "a": 1}}) {
		t.Error("map digest depends on insertion order")
	}
	if ConfigDigest(coll{P: &three}) == ConfigDigest(coll{}) {
		t.Error("pointer field invisible")
	}
}
