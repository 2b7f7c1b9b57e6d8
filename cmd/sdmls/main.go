// Command sdmls inspects a saved SDM metadata catalog (a metadb
// snapshot written by Cluster.SaveCatalog): the runs, datasets, write
// records, imports, and index histories of the paper's six tables —
// the execution-flow picture of the paper's Figure 4 as text.
//
// Usage:
//
//	sdmls [-table all|runs|datasets|writes|imports|histories] catalog.db
//	sdmls -sql 'SELECT * FROM run_table' catalog.db
//	sdmls -remote http://host:8080 [-bundle name] [-table ...]
//
// With -remote the tables come from a running sdmd daemon via the
// client SDK; -sql is local-only (the daemon does not expose raw SQL).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"sdm/internal/catalog"
	"sdm/internal/metadb"
	"sdm/internal/server"
	"sdm/internal/wire"
	"sdm/sdmclient"
)

// tables is what sdmls reads: a local catalog.db through server.Source
// or a daemon through *sdmclient.Client — one method set, so the print
// path (and its errors) is shared.
type tables interface {
	Runs() ([]wire.Run, error)
	Datasets(run int64) ([]wire.Dataset, error)
	Writes(run int64) ([]wire.WriteRecord, error)
	Imports(run int64) ([]wire.ImportEntry, error)
	Histories() ([]wire.IndexHistory, error)
}

func main() {
	table := flag.String("table", "all", "which table(s) to show")
	sql := flag.String("sql", "", "run a raw SQL query instead (local only)")
	remote := flag.String("remote", "", "read from a sdmd daemon at this base URL instead of a local catalog.db")
	bundle := flag.String("bundle", "", "with -remote: bundle name on a multi-bundle daemon")
	flag.Parse()

	var v tables
	switch {
	case *remote != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: sdmls -remote URL [-bundle name] [-table name]")
			os.Exit(2)
		}
		if *sql != "" {
			log.Fatal("sdmls: -sql needs a local catalog.db (the daemon does not expose raw SQL)")
		}
		var opts []sdmclient.Option
		if *bundle != "" {
			opts = append(opts, sdmclient.WithBundle(*bundle))
		}
		v = sdmclient.New(*remote, opts...)
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: sdmls [-table name | -sql query] catalog.db")
			os.Exit(2)
		}
		if *bundle != "" {
			log.Fatal("sdmls: -bundle requires -remote")
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		db := metadb.New()
		if err := db.Load(f); err != nil {
			log.Fatal(err)
		}
		if *sql != "" {
			runSQL(db, *sql)
			return
		}
		v = server.Source{Catalog: catalog.New(db)}
	}
	runs, err := v.Runs()
	if err != nil {
		log.Fatal(describe(err))
	}

	show := func(name string) bool { return *table == "all" || *table == name }
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)

	if show("runs") {
		fmt.Fprintf(w, "== run_table (%d rows) ==\n", len(runs))
		fmt.Fprintln(w, "runid\tapplication\tdimension\tproblem_size\ttimesteps\tstamp")
		for _, r := range runs {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%s\n",
				r.RunID, r.Application, r.Dimension, r.ProblemSize, r.Timesteps, r.ShortStamp())
		}
		w.Flush()
	}
	if show("datasets") {
		fmt.Fprintln(w, "\n== access_pattern_table ==")
		fmt.Fprintln(w, "runid\tdataset\tpattern\ttype\torder\tglobal_size")
		for _, r := range runs {
			infos, err := v.Datasets(r.RunID)
			if err != nil {
				log.Fatal(describe(err))
			}
			for _, d := range infos {
				fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%d\n",
					d.RunID, d.Dataset, d.AccessPattern, d.DataType, d.StorageOrder, d.GlobalSize)
			}
		}
		w.Flush()
	}
	if show("writes") {
		fmt.Fprintln(w, "\n== execution_table ==")
		fmt.Fprintln(w, "runid\tdataset\ttimestep\tfile_offset\tfile_name")
		for _, r := range runs {
			recs, err := v.Writes(r.RunID)
			if err != nil {
				log.Fatal(describe(err))
			}
			for _, rec := range recs {
				fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%s\n",
					rec.RunID, rec.Dataset, rec.Timestep, rec.FileOffset, rec.FileName)
			}
		}
		w.Flush()
	}
	if show("imports") {
		fmt.Fprintln(w, "\n== import_table ==")
		fmt.Fprintln(w, "runid\timported_name\tfile\ttype\tcontent\toffset\tlength")
		for _, r := range runs {
			imps, err := v.Imports(r.RunID)
			if err != nil {
				log.Fatal(describe(err))
			}
			for _, e := range imps {
				fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%d\t%d\n",
					e.RunID, e.ImportedName, e.FileName, e.DataType, e.FileContent, e.FileOffset, e.Length)
			}
		}
		w.Flush()
	}
	if show("histories") {
		hists, err := v.Histories()
		if err != nil {
			log.Fatal(describe(err))
		}
		fmt.Fprintf(w, "\n== index_table (%d histories) ==\n", len(hists))
		fmt.Fprintln(w, "problem_size\tnum_nodes\tnprocs\tfile")
		for _, h := range hists {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\n", h.ProblemSize, h.NumNodes, h.NProcs, h.FileName)
		}
		w.Flush()
	}
}

// describe keeps the two operator-facing failure classes distinct:
// transport failures say how to reach the daemon, 404s say what was
// missing on a healthy one.
func describe(err error) string {
	if errors.Is(err, sdmclient.ErrUnreachable) {
		return fmt.Sprintf("sdmls: cannot reach daemon: %v", err)
	}
	return fmt.Sprintf("sdmls: %v", err)
}

// runSQL executes one raw query against a loaded local snapshot.
func runSQL(db *metadb.DB, sql string) {
	rows, err := db.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(rows.Columns, "\t"))
	for _, row := range rows.Data {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	w.Flush()
}
