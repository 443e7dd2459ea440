package sam

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Reference describes one @SQ header line: a reference sequence the
// alignments may be placed on. ID is the 0-based position of the sequence
// in the header, which doubles as the BAM reference ID.
type Reference struct {
	Name   string // SN: reference sequence name
	Length int    // LN: reference sequence length
	ID     int    // position within the header's reference dictionary
}

// ReadGroup describes one @RG header line.
type ReadGroup struct {
	ID       string
	Sample   string // SM
	Library  string // LB
	Platform string // PL
	Extra    map[string]string
}

// Program describes one @PG header line.
type Program struct {
	ID          string
	Name        string // PN
	CommandLine string // CL
	Version     string // VN
	Extra       map[string]string
}

// SortOrder is the SO field of the @HD line.
type SortOrder string

// Sort orders defined by the SAM specification.
const (
	SortUnknown    SortOrder = "unknown"
	SortUnsorted   SortOrder = "unsorted"
	SortQueryName  SortOrder = "queryname"
	SortCoordinate SortOrder = "coordinate"
)

// Header models the SAM header section: the optional @HD line, the
// reference dictionary (@SQ), read groups (@RG), programs (@PG) and
// free-text comments (@CO).
type Header struct {
	Version    string // VN of @HD
	SortOrder  SortOrder
	Refs       []Reference
	ReadGroups []ReadGroup
	Programs   []Program
	Comments   []string

	byName map[string]int // reference name → index in Refs
}

// ErrInvalidHeader reports a malformed header line.
var ErrInvalidHeader = errors.New("sam: invalid header")

// NewHeader returns a header with the given references registered.
func NewHeader(refs ...Reference) *Header {
	h := &Header{Version: "1.4", SortOrder: SortUnknown}
	for _, r := range refs {
		h.AddReference(r.Name, r.Length)
	}
	return h
}

// AddReference appends a reference sequence and returns its ID. Adding a
// name that already exists returns the existing ID unchanged.
func (h *Header) AddReference(name string, length int) int {
	if h.byName == nil {
		h.byName = make(map[string]int)
	}
	if id, ok := h.byName[name]; ok {
		return id
	}
	id := len(h.Refs)
	h.Refs = append(h.Refs, Reference{Name: name, Length: length, ID: id})
	h.byName[name] = id
	return id
}

// RefID returns the reference ID for name, or -1 when the name is not in
// the dictionary (including the unmapped marker "*").
func (h *Header) RefID(name string) int {
	if name == "*" || name == "" {
		return -1
	}
	if id, ok := h.byName[name]; ok {
		return id
	}
	return -1
}

// RefByID returns the reference with the given ID, or a zero Reference
// with Name "*" for out-of-range IDs (the unmapped convention).
func (h *Header) RefByID(id int) Reference {
	if id < 0 || id >= len(h.Refs) {
		return Reference{Name: "*", ID: -1}
	}
	return h.Refs[id]
}

// Clone returns a deep copy of the header.
func (h *Header) Clone() *Header {
	c := &Header{
		Version:   h.Version,
		SortOrder: h.SortOrder,
		Comments:  append([]string(nil), h.Comments...),
	}
	for _, r := range h.Refs {
		c.AddReference(r.Name, r.Length)
	}
	c.ReadGroups = append(c.ReadGroups, h.ReadGroups...)
	c.Programs = append(c.Programs, h.Programs...)
	return c
}

// ParseHeaderLine folds one "@..." line into the header.
func (h *Header) ParseHeaderLine(line string) error {
	if len(line) < 3 || line[0] != '@' {
		return fmt.Errorf("%w: %q", ErrInvalidHeader, line)
	}
	kind := line[1:3]
	if kind == "CO" {
		// @CO lines carry a single free-text field after the tab.
		if len(line) > 4 {
			h.Comments = append(h.Comments, line[4:])
		} else {
			h.Comments = append(h.Comments, "")
		}
		return nil
	}
	fields := strings.Split(line, "\t")
	switch kind {
	case "HD":
		for _, f := range fields[1:] {
			switch {
			case strings.HasPrefix(f, "VN:"):
				h.Version = f[3:]
			case strings.HasPrefix(f, "SO:"):
				h.SortOrder = SortOrder(f[3:])
			}
		}
	case "SQ":
		var name string
		length := 0
		for _, f := range fields[1:] {
			switch {
			case strings.HasPrefix(f, "SN:"):
				name = f[3:]
			case strings.HasPrefix(f, "LN:"):
				n, err := strconv.Atoi(f[3:])
				if err != nil {
					return fmt.Errorf("%w: bad LN in %q: %v", ErrInvalidHeader, line, err)
				}
				length = n
			}
		}
		if name == "" {
			return fmt.Errorf("%w: @SQ without SN: %q", ErrInvalidHeader, line)
		}
		if name == "*" { // RNAME "*" is an unplaced record
			return fmt.Errorf("%w: @SQ names a reference \"*\": %q", ErrInvalidHeader, line)
		}
		h.AddReference(name, length)
	case "RG":
		rg := ReadGroup{}
		for _, f := range fields[1:] {
			if len(f) < 3 || f[2] != ':' {
				continue
			}
			key, val := f[:2], f[3:]
			switch key {
			case "ID":
				rg.ID = val
			case "SM":
				rg.Sample = val
			case "LB":
				rg.Library = val
			case "PL":
				rg.Platform = val
			default:
				if rg.Extra == nil {
					rg.Extra = make(map[string]string)
				}
				rg.Extra[key] = val
			}
		}
		if rg.ID == "" {
			return fmt.Errorf("%w: @RG without ID: %q", ErrInvalidHeader, line)
		}
		h.ReadGroups = append(h.ReadGroups, rg)
	case "PG":
		pg := Program{}
		for _, f := range fields[1:] {
			if len(f) < 3 || f[2] != ':' {
				continue
			}
			key, val := f[:2], f[3:]
			switch key {
			case "ID":
				pg.ID = val
			case "PN":
				pg.Name = val
			case "CL":
				pg.CommandLine = val
			case "VN":
				pg.Version = val
			default:
				if pg.Extra == nil {
					pg.Extra = make(map[string]string)
				}
				pg.Extra[key] = val
			}
		}
		h.Programs = append(h.Programs, pg)
	default:
		return fmt.Errorf("%w: unknown record type @%s", ErrInvalidHeader, kind)
	}
	return nil
}

// ParseHeader parses a full header text (the leading "@" lines of a SAM
// file, newline separated).
func ParseHeader(text string) (*Header, error) {
	h := NewHeader()
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSuffix(line, "\r")
		if line == "" {
			continue
		}
		if err := h.ParseHeaderLine(line); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// String renders the header as SAM text, each line newline-terminated.
// The @HD line is emitted only when a version is set.
func (h *Header) String() string {
	var b strings.Builder
	if h.Version != "" {
		b.WriteString("@HD\tVN:")
		b.WriteString(h.Version)
		if h.SortOrder != "" && h.SortOrder != SortUnknown {
			b.WriteString("\tSO:")
			b.WriteString(string(h.SortOrder))
		}
		b.WriteByte('\n')
	}
	for _, r := range h.Refs {
		fmt.Fprintf(&b, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Length)
	}
	for _, rg := range h.ReadGroups {
		b.WriteString("@RG\tID:")
		b.WriteString(rg.ID)
		if rg.Sample != "" {
			b.WriteString("\tSM:" + rg.Sample)
		}
		if rg.Library != "" {
			b.WriteString("\tLB:" + rg.Library)
		}
		if rg.Platform != "" {
			b.WriteString("\tPL:" + rg.Platform)
		}
		for k, v := range rg.Extra {
			b.WriteString("\t" + k + ":" + v)
		}
		b.WriteByte('\n')
	}
	for _, pg := range h.Programs {
		b.WriteString("@PG\tID:")
		b.WriteString(pg.ID)
		if pg.Name != "" {
			b.WriteString("\tPN:" + pg.Name)
		}
		if pg.Version != "" {
			b.WriteString("\tVN:" + pg.Version)
		}
		if pg.CommandLine != "" {
			b.WriteString("\tCL:" + pg.CommandLine)
		}
		for k, v := range pg.Extra {
			b.WriteString("\t" + k + ":" + v)
		}
		b.WriteByte('\n')
	}
	for _, c := range h.Comments {
		b.WriteString("@CO\t")
		b.WriteString(c)
		b.WriteByte('\n')
	}
	return b.String()
}
