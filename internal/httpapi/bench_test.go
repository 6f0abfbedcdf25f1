package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/vcrypto"
)

// BenchmarkServeGet drives Server.ServeHTTP for GET /records/{id} on an
// in-memory vault, without a socket: routing, the trace, the request
// metrics, the vault read and the JSON response. Its allocations per op are
// the fixed cost the HTTP layer adds to every read.
func BenchmarkServeGet(b *testing.B) {
	master, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	v, err := core.Open(core.Config{Name: "bench", Master: master, Clock: clock.NewVirtual(epoch)})
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	provisionPersonas(b, v)
	srv := New(v)

	body := `{"id":"p1","patient":"Ada Lovelace","mrn":"mrn-1","category":"clinical","title":"Visit note","body":"suspected hypertension"}`
	put := httptest.NewRequest(http.MethodPost, "/records", strings.NewReader(body))
	put.Header.Set(actorHeader, "dr-house")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, put)
	if w.Code != http.StatusCreated {
		b.Fatalf("create = %d %s", w.Code, w.Body)
	}
	get := httptest.NewRequest(http.MethodGet, "/records/p1", nil)
	get.Header.Set(actorHeader, "dr-house")

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, get)
		if w.Code != http.StatusOK {
			b.Fatalf("get = %d %s", w.Code, w.Body)
		}
	}
}
