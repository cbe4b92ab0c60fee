// Package directory reimplements the LDAP user directory the paper lists
// among the essential production services ported to Monte Cimone
// (Section IV-A: "NFS, LDAP and the SLURM job scheduler"). It provides a
// posixAccount/posixGroup-style tree with bind (authentication), search
// with scoped filters, and the login-node session flow the cluster's
// users go through before submitting jobs.
package directory

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrInvalidCredentials is returned by Bind on a bad DN/password pair.
var ErrInvalidCredentials = errors.New("directory: invalid credentials")

// User is a posixAccount entry.
type User struct {
	// Username is the uid attribute; UID/GID the numeric ids.
	Username string
	UID      int
	GID      int
	// FullName is the cn attribute; Home and Shell the posix fields.
	FullName string
	Home     string
	Shell    string

	passwordHash string
}

// DN returns the entry's distinguished name.
func (u *User) DN(base string) string {
	return fmt.Sprintf("uid=%s,ou=People,%s", u.Username, base)
}

// Group is a posixGroup entry.
type Group struct {
	// Name is the cn attribute; GID the numeric id; Members the uids.
	Name    string
	GID     int
	Members []string
}

// Server is the in-memory directory (slapd on the master node).
type Server struct {
	base    string
	users   map[string]*User
	groups  map[string]*Group
	nextUID int
}

// NewServer creates a directory with the given base DN, e.g.
// "dc=montecimone,dc=unibo,dc=it".
func NewServer(base string) (*Server, error) {
	if base == "" {
		return nil, fmt.Errorf("directory: empty base DN")
	}
	return &Server{
		base:    base,
		users:   make(map[string]*User),
		groups:  make(map[string]*Group),
		nextUID: 1000,
	}, nil
}

// Base returns the base DN.
func (s *Server) Base() string { return s.base }

// AddGroup creates a posixGroup.
func (s *Server) AddGroup(name string, gid int) (*Group, error) {
	if name == "" {
		return nil, fmt.Errorf("directory: empty group name")
	}
	if _, dup := s.groups[name]; dup {
		return nil, fmt.Errorf("directory: group %q exists", name)
	}
	for _, g := range s.groups {
		if g.GID == gid {
			return nil, fmt.Errorf("directory: gid %d taken by %q", gid, g.Name)
		}
	}
	g := &Group{Name: name, GID: gid}
	s.groups[name] = g
	return g, nil
}

// AddUser creates a posixAccount in an existing group and sets its
// password. The uid number is allocated sequentially from 1000.
func (s *Server) AddUser(username, fullName, group, password string) (*User, error) {
	if username == "" {
		return nil, fmt.Errorf("directory: empty username")
	}
	if _, dup := s.users[username]; dup {
		return nil, fmt.Errorf("directory: user %q exists", username)
	}
	g, ok := s.groups[group]
	if !ok {
		return nil, fmt.Errorf("directory: unknown group %q", group)
	}
	if len(password) < 6 {
		return nil, fmt.Errorf("directory: password for %q too short", username)
	}
	u := &User{
		Username: username,
		UID:      s.nextUID,
		GID:      g.GID,
		FullName: fullName,
		Home:     "/home/" + username, // the NFS-exported home
		Shell:    "/bin/bash",

		passwordHash: hashPassword(password),
	}
	s.nextUID++
	s.users[username] = u
	g.Members = append(g.Members, username)
	sort.Strings(g.Members)
	return u, nil
}

func hashPassword(pw string) string {
	sum := sha256.Sum256([]byte(pw))
	return "{SHA256}" + hex.EncodeToString(sum[:])
}

// Bind authenticates a DN ("uid=user,ou=People,<base>") or bare username
// against its password.
func (s *Server) Bind(dn, password string) (*User, error) {
	username := dn
	if strings.HasPrefix(dn, "uid=") {
		rest := strings.TrimPrefix(dn, "uid=")
		username, _, _ = strings.Cut(rest, ",")
		if !strings.HasSuffix(dn, s.base) {
			return nil, ErrInvalidCredentials
		}
	}
	u, ok := s.users[username]
	if !ok || u.passwordHash != hashPassword(password) {
		return nil, ErrInvalidCredentials
	}
	return u, nil
}

// Lookup resolves a username (getent passwd).
func (s *Server) Lookup(username string) (*User, bool) {
	u, ok := s.users[username]
	return u, ok
}

// LookupGroup resolves a group name (getent group).
func (s *Server) LookupGroup(name string) (*Group, bool) {
	g, ok := s.groups[name]
	return g, ok
}

// Search returns users matching a simple attribute filter of the form
// "(attr=value)" with '*' suffix wildcards on the value; supported
// attributes: uid, cn, gidNumber. Results are sorted by username.
func (s *Server) Search(filter string) ([]*User, error) {
	attr, value, err := parseFilter(filter)
	if err != nil {
		return nil, err
	}
	var out []*User
	for _, u := range s.users {
		var field string
		switch attr {
		case "uid":
			field = u.Username
		case "cn":
			field = u.FullName
		case "gidNumber":
			field = fmt.Sprintf("%d", u.GID)
		default:
			return nil, fmt.Errorf("directory: unsupported attribute %q", attr)
		}
		if matchValue(field, value) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Username < out[j].Username })
	return out, nil
}

func parseFilter(filter string) (attr, value string, err error) {
	if !strings.HasPrefix(filter, "(") || !strings.HasSuffix(filter, ")") {
		return "", "", fmt.Errorf("directory: filter %q must be (attr=value)", filter)
	}
	body := filter[1 : len(filter)-1]
	attr, value, ok := strings.Cut(body, "=")
	if !ok || attr == "" || value == "" {
		return "", "", fmt.Errorf("directory: filter %q must be (attr=value)", filter)
	}
	return attr, value, nil
}

func matchValue(field, pattern string) bool {
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(field, strings.TrimSuffix(pattern, "*"))
	}
	return field == pattern
}

// Session is a login-node shell session for an authenticated user.
type Session struct {
	// User is the authenticated account; Host the login node.
	User *User
	Host string
}

// Login authenticates against the directory and opens a session on the
// login node, the path every Monte Cimone user takes before sbatch.
func Login(s *Server, host, username, password string) (*Session, error) {
	u, err := s.Bind(username, password)
	if err != nil {
		return nil, fmt.Errorf("directory: login on %s: %w", host, err)
	}
	return &Session{User: u, Host: host}, nil
}

// DefaultDirectory builds the cluster's stock directory: the hpc group
// with the benchmark ("bench") and operations ("ops") accounts.
func DefaultDirectory() (*Server, error) {
	s, err := NewServer("dc=montecimone,dc=unibo,dc=it")
	if err != nil {
		return nil, err
	}
	if _, err := s.AddGroup("hpc", 100); err != nil {
		return nil, err
	}
	for _, acct := range []struct{ user, name, pass string }{
		{"bench", "Benchmark Runner", "hpl-2.3-runs"},
		{"ops", "Cluster Operations", "keep-it-cool"},
	} {
		if _, err := s.AddUser(acct.user, acct.name, "hpc", acct.pass); err != nil {
			return nil, err
		}
	}
	return s, nil
}
