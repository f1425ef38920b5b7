package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
	"time"
)

// overflowImage is a v3 image whose header vouches for its manifest
// but whose second section claims math.MaxInt64 bytes: a bounds test
// written as off+size > len overflows on it.
func overflowImage(key string) []byte {
	report := []byte("{}")
	sum := sha256.Sum256(report)
	m := manifest{Key: key, Sections: []section{
		{Name: "report", Size: int64(len(report)), SHA256: hex.EncodeToString(sum[:])},
		{Name: "artifact:a", Offset: int64(len(report)), Size: 1<<63 - 1, SHA256: hex.EncodeToString(sum[:])},
	}}
	line := m.appendLine(nil)
	img := append(appendHeader(nil, line), line...)
	return append(append(img, report...), "tail"...)
}

// v2OverflowImage is overflowImage in the bisramstore2 format, whose
// decoder panicked on it.
func v2OverflowImage(key string) []byte {
	payload := []byte(`{"key":"` + key + `","sections":[{"name":"report","size":2},{"name":"artifact:a","size":9223372036854775807}]}` + "\n{}tail")
	sum := sha256.Sum256(payload)
	return append([]byte("bisramstore2 "+hex.EncodeToString(sum[:])+"\n"), payload...)
}

// plant commits raw as key's object file in s and indexes it, as if a
// Put had written it.
func plant(t *testing.T, s *Store, key string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(s.objectPath(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	if old, ok := s.index[key]; ok {
		s.bytes -= old.size
	}
	s.index[key] = &meta{size: int64(len(raw)), atime: time.Now()}
	s.bytes += int64(len(raw))
	s.mu.Unlock()
}

// checkImage verifies raw by hand, independently of parseHead and
// verify: the header line carries the manifest line's digest, the
// sections lie end to end, exactly fill the file and match their
// digests. It returns the manifest and the section bytes.
func checkImage(t *testing.T, raw []byte) (manifest, []byte) {
	t.Helper()
	hdr, rest, ok := bytes.Cut(raw, []byte("\n"))
	if !ok {
		t.Fatal("accepted image has no header line")
	}
	line, _, ok := bytes.Cut(rest, []byte("\n"))
	if !ok {
		t.Fatal("accepted image has no manifest line")
	}
	line = rest[:len(line)+1]
	sum := sha256.Sum256(line)
	if string(hdr) != headerMagic+" "+hex.EncodeToString(sum[:]) {
		t.Fatalf("accepted header %q does not vouch for the manifest", hdr)
	}
	m, err := parseManifest(line[:len(line)-1])
	if err != nil {
		t.Fatalf("accepted manifest does not parse: %v", err)
	}
	body := rest[len(line):]
	var off int64
	for _, sec := range m.Sections {
		if sec.Offset != off || sec.Size < 0 || sec.Size > int64(len(body))-off {
			t.Fatalf("accepted section %+v is not at %d inside %d bytes", sec, off, len(body))
		}
		sum := sha256.Sum256(body[off : off+sec.Size])
		if hex.EncodeToString(sum[:]) != sec.SHA256 {
			t.Fatalf("accepted section %q fails its digest", sec.Name)
		}
		off += sec.Size
	}
	if off != int64(len(body)) {
		t.Fatalf("accepted sections cover %d of %d bytes", off, len(body))
	}
	return m, body
}

// FuzzDecodeObject feeds arbitrary images to the whole-image decoder
// (peer fetch) and to a disk hit. Neither may panic; an image the
// decoder accepts verifies section by section and exactly fills the
// file; and a hit never returns a report other than the bytes whose
// digest the manifest records.
func FuzzDecodeObject(f *testing.F) {
	key := testKey("fuzz")
	e := testEntry("fuzz", 8)
	e.Artifacts["layout.gds"] = []byte("gds")
	parts, err := encodeObject(e)
	if err != nil {
		f.Fatal(err)
	}
	valid := bytes.Join(parts, nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add(overflowImage(key))
	f.Add(v2Image(e))
	f.Add(v2OverflowImage(key))

	s, err := Open(Config{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	s.qMaxObj = 4
	f.Fuzz(func(t *testing.T, raw []byte) {
		if entry, err := decodeObject(key, raw); err == nil {
			m, body := checkImage(t, raw)
			if entry.Key != key || !bytes.Equal(entry.Report, body[:m.Sections[0].Size]) {
				t.Fatal("decoded report is not the image's report section")
			}
		}
		plant(t, s, key, raw)
		got, ok := s.Get(key)
		if !ok {
			return
		}
		hdr, rest, _ := bytes.Cut(raw, []byte("\n"))
		line, _, _ := bytes.Cut(rest, []byte("\n"))
		sum := sha256.Sum256(rest[:len(line)+1])
		m, err := parseManifest(line)
		if string(hdr) != headerMagic+" "+hex.EncodeToString(sum[:]) || err != nil || len(m.Sections) == 0 {
			t.Fatal("hit served an image whose header does not vouch for a manifest")
		}
		sum = sha256.Sum256(got.Report)
		if hex.EncodeToString(sum[:]) != m.Sections[0].SHA256 {
			t.Fatal("hit served a report whose digest differs from the manifest's")
		}
	})
}

// TestDecodeObjectOverflowSeed: the crafted image with a
// math.MaxInt64 section is refused by both read paths instead of
// panicking, and so is its v2 twin.
func TestDecodeObjectOverflowSeed(t *testing.T) {
	key := testKey("fuzz")
	s := open(t, t.TempDir(), 0)
	for _, raw := range [][]byte{overflowImage(key), v2OverflowImage(key)} {
		if _, err := decodeObject(key, raw); err == nil {
			t.Fatal("overflowing image accepted by the decoder")
		}
		plant(t, s, key, raw)
		if _, ok := s.Get(key); ok {
			t.Fatal("overflowing image served by a hit")
		}
	}
}
