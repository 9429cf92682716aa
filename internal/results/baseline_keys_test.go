package results

import (
	"os"
	"testing"
)

// TestBaselineKeysReproduce pins the key encoding to the committed CI
// baseline store: every record's TrialKey and GroupKey must be what KeyOf
// and GroupOf compute from its stored config today. A config field added,
// removed or reordered without a schema bump would silently move every key,
// and a compare against the baseline would then match zero groups.
func TestBaselineKeysReproduce(t *testing.T) {
	f, err := os.Open("../../ci/grid-baseline.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := NewMemStore()
	if err := st.Load(f); err != nil {
		t.Fatal(err)
	}
	recs := st.Records()
	if len(recs) == 0 {
		t.Fatal("baseline store holds no records")
	}
	for i, rec := range recs {
		if got := KeyOf(rec.Config); got != rec.Key {
			t.Errorf("record %d (%s): KeyOf = %s, stored key %s", i, Label(rec.Config), got, rec.Key)
		}
		if got := GroupOf(rec.Config); got != rec.Group {
			t.Errorf("record %d (%s): GroupOf = %s, stored group %s", i, Label(rec.Config), got, rec.Group)
		}
	}
}
