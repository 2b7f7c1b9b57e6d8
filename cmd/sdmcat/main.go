// Command sdmcat reads dataset bytes back out of a saved run bundle
// (Cluster.SaveBundle): it resolves a (run, dataset, timestep) through
// the bundle's execution table to a (file, offset) and dumps the slab
// — the promise that data written through SDM stays reachable by name
// from the metadata catalog, demonstrated from a separate OS process.
//
// Usage:
//
//	sdmcat -list BUNDLEDIR
//	sdmcat -dataset pressure [-run 1] [-timestep 0] [-as auto|raw|double|int|long]
//	       [-head 10] [-o out.bin] BUNDLEDIR
//	sdmcat -remote http://host:8080 [-bundle name] -dataset pressure ...
//
// With -remote the bundle lives behind a running sdmd daemon instead
// of on the local disk; everything else — flags, output, bytes — is
// identical, byte for byte. With -as raw the slab's bytes go to stdout
// (or -o) verbatim; the typed forms print one value per line, decoded
// per the dataset's registered data type.
package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"text/tabwriter"

	"sdm"
	"sdm/internal/server"
	"sdm/internal/wire"
	"sdm/sdmclient"
)

// bundle is what sdmcat reads: a local bundle through server.Source or
// a daemon through *sdmclient.Client — one method set, so the print
// and read paths (and their errors) are shared.
type bundle interface {
	Runs() ([]wire.Run, error)
	Datasets(run int64) ([]wire.Dataset, error)
	Writes(run int64) ([]wire.WriteRecord, error)
	ReadDataset(run int64, dataset string, timestep int64) ([]byte, error)
}

func main() {
	list := flag.Bool("list", false, "list the bundle's runs, datasets, and recorded writes")
	run := flag.Int64("run", 0, "run id (default: the bundle's latest run)")
	dataset := flag.String("dataset", "", "dataset name to dump")
	timestep := flag.Int64("timestep", 0, "timestep to dump")
	as := flag.String("as", "auto", "output form: auto, raw, double, int, long")
	head := flag.Int64("head", 0, "print only the first N values (0 = all)")
	out := flag.String("o", "", "write raw bytes to this file instead of stdout")
	remote := flag.String("remote", "", "read from a sdmd daemon at this base URL instead of a local bundle")
	bundleName := flag.String("bundle", "", "with -remote: bundle name on a multi-bundle daemon")
	flag.Parse()

	var b bundle
	switch {
	case *remote != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: sdmcat -remote URL [-bundle name] [-list | -dataset name [options]]")
			os.Exit(2)
		}
		var opts []sdmclient.Option
		if *bundleName != "" {
			opts = append(opts, sdmclient.WithBundle(*bundleName))
		}
		b = sdmclient.New(*remote, opts...)
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: sdmcat [-list | -dataset name [options]] BUNDLEDIR")
			os.Exit(2)
		}
		if *bundleName != "" {
			log.Fatal("sdmcat: -bundle requires -remote")
		}
		cl, err := sdm.OpenBundle(flag.Arg(0), sdm.ClusterConfig{})
		if err != nil {
			log.Fatal(describe(err))
		}
		b = server.Source{Catalog: cl.Catalog, FS: cl.FS}
	}
	runs, err := b.Runs()
	if err != nil {
		log.Fatal(describe(err))
	}

	if *list {
		printInventory(b, runs)
		return
	}
	if *dataset == "" {
		log.Fatal("sdmcat: -dataset is required (or use -list)")
	}
	if *run == 0 {
		if len(runs) == 0 {
			log.Fatal("sdmcat: bundle has no runs")
		}
		*run = runs[len(runs)-1].RunID
	}

	buf, info, err := read(b, *run, *dataset, *timestep)
	if err != nil {
		log.Fatal(describe(err))
	}

	form := *as
	if form == "auto" {
		switch info.DataType {
		case "INTEGER":
			form = "int"
		case "LONG":
			form = "long"
		default:
			form = "double"
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if form == "raw" {
		if _, err := w.Write(buf); err != nil {
			log.Fatal(err)
		}
		return
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	n := info.GlobalSize
	if *head > 0 && *head < n {
		n = *head
	}
	for i := int64(0); i < n; i++ {
		switch form {
		case "double":
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
			fmt.Fprintf(bw, "%g\n", v)
		case "int":
			fmt.Fprintf(bw, "%d\n", int32(binary.LittleEndian.Uint32(buf[i*4:])))
		case "long":
			fmt.Fprintf(bw, "%d\n", int64(binary.LittleEndian.Uint64(buf[i*8:])))
		default:
			log.Fatalf("sdmcat: unknown -as form %q", form)
		}
	}
}

// describe prefixes errors with operator-facing context: a refused
// connection ("is sdmd running?") reads nothing like a missing
// dataset, because they need opposite fixes.
func describe(err error) string {
	if errors.Is(err, sdmclient.ErrUnreachable) {
		return fmt.Sprintf("sdmcat: cannot reach daemon: %v", err)
	}
	return fmt.Sprintf("sdmcat: %v", err)
}

// read fetches one full slab plus the dataset's type info.
func read(b bundle, run int64, dataset string, timestep int64) ([]byte, *wire.Dataset, error) {
	infos, err := b.Datasets(run)
	if err != nil {
		return nil, nil, err
	}
	for i := range infos {
		if infos[i].Dataset == dataset {
			buf, err := b.ReadDataset(run, dataset, timestep)
			return buf, &infos[i], err
		}
	}
	return nil, nil, fmt.Errorf("%w: dataset %q not registered for run %d", wire.ErrNotFound, dataset, run)
}

// printInventory lists what the bundle's catalog knows: runs, their
// datasets, and every recorded write.
func printInventory(b bundle, runs []wire.Run) {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, r := range runs {
		fmt.Fprintf(w, "run %d\t%s\t%s\n", r.RunID, r.Application, r.ShortStamp())
		infos, err := b.Datasets(r.RunID)
		if err != nil {
			log.Fatal(describe(err))
		}
		for _, d := range infos {
			fmt.Fprintf(w, "  dataset %s\t%s x %d\t%s\n", d.Dataset, d.DataType, d.GlobalSize, d.AccessPattern)
		}
		recs, err := b.Writes(r.RunID)
		if err != nil {
			log.Fatal(describe(err))
		}
		for _, rec := range recs {
			fmt.Fprintf(w, "  write %s@%d\t%s\toffset %d\n", rec.Dataset, rec.Timestep, rec.FileName, rec.FileOffset)
		}
	}
	w.Flush()
}
