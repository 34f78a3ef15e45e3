// Command mtdserver serves the multi-tenant engine over the wire
// protocol (internal/protocol): a credentialed handshake per
// connection, statements in pipelined Batch frames, interactive
// transactions, streaming results, per-tenant session quotas and
// statement rate limits, and an append-only audit log.
//
// Two modes:
//
//   - Raw mode (default): clients send physical SQL straight to engine
//     sessions. Trusted deployments and the network benchmarks.
//   - Layout mode (-layout NAME): the paper's demo schema (Account with
//     the health-care and automotive extensions, tenants 17/35/42) is
//     provisioned under the named schema-mapping layout, and clients
//     send LOGICAL SQL that is tenant-rewritten per their handshake
//     credentials — a connection can only touch its own tenant's rows.
//
// A third mode turns the process into a WAL-shipping read replica:
//
//   - Replica mode (-replica-of ADDR): subscribe to the primary
//     mtdserver at ADDR, bootstrap from its snapshot, apply its WAL
//     stream continuously, and serve read-only sessions pinned at the
//     last applied commit LSN. Writes are fenced with a read-only
//     error.
//
// Usage:
//
//	mtdserver -addr :7070
//	mtdserver -addr :7070 -layout chunk -auth "17:alpha,35:beta,42:gamma" \
//	    -max-sessions 64 -stmt-rate 1000 -audit audit.jsonl
//	mtdserver -addr :7071 -replica-of 127.0.0.1:7070
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/repl"
	"repro/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr        = flag.String("addr", ":7070", "listen address")
		layoutName  = flag.String("layout", "", "layout mode: serve logical SQL under this schema-mapping layout (private, extension, universal, pivot, chunk, chunk-flat, vertical, chunkfold); empty = raw physical SQL")
		authSpec    = flag.String("auth", "", "tenant credentials as \"tenant:token,...\"; empty = open access")
		maxSessions = flag.Int("max-sessions", 0, "per-tenant concurrent session quota (0 = unlimited)")
		stmtRate    = flag.Float64("stmt-rate", 0, "per-tenant statements/sec rate limit (0 = unlimited)")
		auditPath   = flag.String("audit", "", "append audit records as JSON lines to this file (\"-\" = stderr)")
		auditStmts  = flag.Bool("audit-statements", false, "also audit every statement (high volume)")
		batchRows   = flag.Int("batch-rows", 256, "rows per result batch frame")
		replicaOf   = flag.String("replica-of", "", "run as a read replica of the primary mtdserver at this address")
		replTenant  = flag.Int64("replica-tenant", 0, "tenant credential for the replication subscription handshake")
		replToken   = flag.String("replica-token", "", "token credential for the replication subscription handshake")
	)
	flag.Parse()

	var db *engine.DB
	if *replicaOf != "" {
		if *layoutName != "" {
			fmt.Fprintln(os.Stderr, "-replica-of and -layout are mutually exclusive: a replica's schema comes from the primary's stream")
			return 1
		}
		rep, err := repl.Connect(repl.ReplicaConfig{
			Addr:   *replicaOf,
			Tenant: *replTenant,
			Token:  *replToken,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "replica bootstrap from %s: %v\n", *replicaOf, err)
			return 1
		}
		defer rep.Close()
		// Serve the replica's database. Known limitation: if the primary
		// truncates history past our position the replica re-bootstraps
		// into a FRESH engine, and sessions opened on the old one keep
		// reading a frozen snapshot until they reconnect. Keeping the
		// follower close to the primary (the normal state) avoids this.
		db = rep.DB()
		fmt.Fprintf(os.Stderr, "mtdserver: replicating from %s (applied LSN %d)\n", *replicaOf, rep.AppliedLSN())
	} else {
		db = engine.Open(engine.Config{})
	}
	cfg := server.Config{DB: db, MaxRowBatch: *batchRows}

	if *layoutName != "" {
		layout, err := core.LayoutByName(*layoutName, core.PaperSchema())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := layout.Create(db, []*core.Tenant{
			{ID: 17, Extensions: []string{"HealthcareAccount"}},
			{ID: 35},
			{ID: 42, Extensions: []string{"AutomotiveAccount"}},
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg.Layout = layout
	}

	if *authSpec != "" {
		auth := server.NewAuthenticator()
		for _, pair := range strings.Split(*authSpec, ",") {
			tenantStr, token, ok := strings.Cut(strings.TrimSpace(pair), ":")
			if !ok {
				fmt.Fprintf(os.Stderr, "bad -auth entry %q (want tenant:token)\n", pair)
				return 1
			}
			tenant, err := strconv.ParseInt(tenantStr, 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad tenant id %q: %v\n", tenantStr, err)
				return 1
			}
			auth.Register(tenant, server.Credentials{
				Token:            token,
				MaxSessions:      *maxSessions,
				StatementsPerSec: *stmtRate,
			})
		}
		cfg.Auth = auth
	}

	if *auditPath != "" {
		w := os.Stderr
		if *auditPath != "-" {
			f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer f.Close()
			w = f
		}
		cfg.Audit = server.NewAuditLog(0, w)
		cfg.Audit.Statements = *auditStmts
	}

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// SIGINT/SIGTERM drain the server: every live session is reaped
	// (open transactions rolled back) before the process exits.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "mtdserver: %s, draining\n", sig)
		srv.Close()
	}()

	mode := "raw"
	if cfg.Layout != nil {
		mode = "layout:" + *layoutName
	}
	if *replicaOf != "" {
		mode = "replica:" + *replicaOf
	}
	fmt.Fprintf(os.Stderr, "mtdserver: listening on %s (%s mode)\n", *addr, mode)
	if err := srv.ListenAndServe(*addr); err != nil && err != server.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
