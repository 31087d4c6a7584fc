package repair

import "testing"

func TestWithDefaultsFillsZeroConfig(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.RemapPhases != 0 {
		t.Errorf("RemapPhases = %d, want 0", c.RemapPhases)
	}
	// The detection sub-config must be usable without the caller touching
	// it — a partially specified RepairConfig must not panic a pass.
	if c.Detect.TestSize <= 0 || c.Detect.Divisor <= 1 || c.Detect.Delta <= 0 {
		t.Errorf("detect sub-config not filled: %+v", c.Detect)
	}
}

func TestWithDefaultsClamps(t *testing.T) {
	c := Config{RemapPhases: -3}.WithDefaults()
	if c.RemapPhases != 0 {
		t.Errorf("negative RemapPhases not clamped: %d", c.RemapPhases)
	}
}

func TestWithDefaultsPreservesExplicitValues(t *testing.T) {
	in := Config{RemapPhases: 5}
	c := in.WithDefaults()
	if c.RemapPhases != 5 {
		t.Errorf("explicit values changed: %+v", c)
	}
	// Idempotent: defaults applied twice are the same config.
	if again := c.WithDefaults(); again != c {
		t.Errorf("WithDefaults not idempotent:\n first %+v\nsecond %+v", c, again)
	}
}
