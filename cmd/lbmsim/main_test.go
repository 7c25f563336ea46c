package main

import (
	"testing"

	"ddr/internal/chaos"
)

func TestSplitRoleRejectsChaos(t *testing.T) {
	faulty := chaos.Options{Seed: 1, DropProb: 0.1}
	for _, role := range []string{"sim", "viz"} {
		if err := splitRoleChaos(role, faulty); err == nil {
			t.Errorf("role %s accepted a fault schedule", role)
		}
		if err := splitRoleChaos(role, chaos.Options{Seed: 1}); err != nil {
			t.Errorf("role %s without faults: %v", role, err)
		}
	}
	if err := splitRoleChaos("both", faulty); err != nil {
		t.Errorf("role both: %v", err)
	}
}
