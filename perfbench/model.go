package main

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"whisper/internal/backend"
)

// Operation names of the benchmark's StudentManagement service. Both
// are served by one b-peer group: the op name, not the signature,
// selects the handler branch.
const (
	opRead  = "StudentInformation"
	opWrite = "RecordPayment"
)

// students is the size of the generated student table.
const students = 200

// model is the benchmark's own view of the data the service holds: the
// student table it generated from the seed. Replies are checked against
// it, never against an earlier run's output.
type model struct {
	records map[string]backend.StudentRecord
	ids     []string
}

var (
	firstNames = []string{"Maria", "Joao", "Ana", "Pedro", "Ines", "Rui", "Carla", "Tiago", "Marta", "Nuno"}
	lastNames  = []string{"Silva", "Santos", "Ferreira", "Costa", "Oliveira", "Sousa", "Pereira"}
	programs   = []string{"Informatics", "Mathematics", "Biology", "Economics", "Design", "Physics"}
)

// newModel generates the student table for a seed.
func newModel(seed int64) *model {
	rng := rand.New(rand.NewSource(seed))
	m := &model{records: make(map[string]backend.StudentRecord, students)}
	for i := 0; i < students; i++ {
		id := fmt.Sprintf("S%04d", i+1)
		m.ids = append(m.ids, id)
		m.records[id] = backend.StudentRecord{
			ID:      id,
			Name:    firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))],
			Program: programs[rng.Intn(len(programs))],
			Year:    1 + rng.Intn(5),
			Email:   "s" + strconv.Itoa(rng.Intn(1_000_000)) + "@uma.pt",
		}
	}
	return m
}

// list returns the records in generation order.
func (m *model) list() []backend.StudentRecord {
	out := make([]backend.StudentRecord, 0, len(m.ids))
	for _, id := range m.ids {
		out = append(out, m.records[id])
	}
	return out
}

// op is one client operation: a student lookup or a keyed payment.
type op struct {
	write   bool
	student string
	key     string
	amount  int64
}

// body renders the operation's request body XML.
func (o op) body() []byte {
	if !o.write {
		return []byte("<StudentInformation><StudentID>" + o.student + "</StudentID></StudentInformation>")
	}
	return []byte("<RecordPayment><Key>" + o.key + "</Key><StudentID>" + o.student +
		"</StudentID><Amount>" + strconv.FormatInt(o.amount, 10) + "</Amount></RecordPayment>")
}

// opStream generates one client's operations: blocks of writeEvery
// operations holding one write at a seeded position, the rest reads
// (writeEvery == 1 makes every operation a write). Keys are unique per
// stream tag, so no two operations of a deployment share a key.
type opStream struct {
	m          *model
	rng        *rand.Rand
	tag        string
	writeEvery int
	block      []op
	writes     int
}

func newOpStream(m *model, seed int64, tag string, client, writeEvery int) *opStream {
	return &opStream{
		m:          m,
		rng:        rand.New(rand.NewSource(seed*1_000_003 + int64(fnvString(tag)) + int64(client))),
		tag:        fmt.Sprintf("%s-c%d", tag, client),
		writeEvery: writeEvery,
	}
}

// next returns the next operation and whether it starts a block.
func (s *opStream) next() (op, bool) {
	first := len(s.block) == 0
	if first {
		w := s.rng.Intn(s.writeEvery)
		for i := 0; i < s.writeEvery; i++ {
			o := op{student: s.m.ids[s.rng.Intn(len(s.m.ids))]}
			if i == w {
				s.writes++
				o.write = true
				o.key = s.tag + "-" + strconv.Itoa(s.writes)
				o.amount = 1 + s.rng.Int63n(100_000)
			}
			s.block = append(s.block, o)
		}
	}
	o := s.block[0]
	s.block = s.block[1:]
	return o, first
}

func fnvString(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return h.Sum32()
}

// digest is the receipt checksum the payment handler computes and the
// model recomputes.
func digest(key, student string, amount int64) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(student))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(strconv.FormatInt(amount, 10)))
	return strconv.FormatUint(h.Sum64(), 16)
}

// studentInfo is the reply of a lookup after the proxy's translation.
type studentInfo struct {
	XMLName xml.Name
	backend.StudentRecord
}

// receipt is the reply of a payment after the proxy's translation.
type receipt struct {
	XMLName   xml.Name
	Key       string `xml:"Key"`
	StudentID string `xml:"StudentID"`
	Amount    int64  `xml:"Amount"`
	Digest    string `xml:"Digest"`
}

// replyRoot is the element the service's WSDL names as the output of
// both operations; the proxy's translator renames reply roots to it.
const replyRoot = "StudentInfo"

// check verifies one reply against the model.
func (m *model) check(o op, reply []byte) error {
	if o.write {
		var r receipt
		if err := xml.Unmarshal(reply, &r); err != nil {
			return fmt.Errorf("payment %s: undecodable reply %q: %w", o.key, clip(reply), err)
		}
		want := receipt{Key: o.key, StudentID: o.student, Amount: o.amount, Digest: digest(o.key, o.student, o.amount)}
		if r.XMLName.Local != replyRoot || r.Key != want.Key || r.StudentID != want.StudentID ||
			r.Amount != want.Amount || r.Digest != want.Digest {
			return fmt.Errorf("payment %s: reply %q, want root %s with %+v", o.key, clip(reply), replyRoot, want)
		}
		return nil
	}
	var got studentInfo
	if err := xml.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("lookup %s: undecodable reply %q: %w", o.student, clip(reply), err)
	}
	want := m.records[o.student]
	src := got.Source
	got.Source = ""
	if got.XMLName.Local != replyRoot || got.StudentRecord != want {
		return fmt.Errorf("lookup %s: reply %q, want root %s with %+v", o.student, clip(reply), replyRoot, want)
	}
	if src != "operational-db" && src != "data-warehouse" {
		return fmt.Errorf("lookup %s: reply from unknown store %q", o.student, src)
	}
	return nil
}

func clip(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if len(b) > 200 {
		return b[:200]
	}
	return b
}
