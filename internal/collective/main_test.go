package collective

import (
	"testing"

	"pcxxstreams/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
