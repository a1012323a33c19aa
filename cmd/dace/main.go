// Command dace trains, fine-tunes, evaluates, and serves the DACE cost
// estimator on the simulated benchmark.
//
// Usage:
//
//	dace train    -dbs airline,walmart,financial -queries 200 -model dace.json
//	dace eval     -model dace.json -db imdb -queries 200
//	dace finetune -model dace.json -dbs airline,walmart -machine M2 -out dace_m2.json
//	dace predict  -model dace.json -plan plan.json
//	dace encode   -in plan.json -out plan.bin        (JSON → binary wire)
//	dace encode   -decode -in plan.bin               (binary wire → JSON)
//	dace tenants  -addr http://localhost:8080        (live multi-tenant state)
//	dace tenants  -dir tenants                       (offline artifact dirs)
//	dace loadtest -url http://localhost:8080/predict -schedule const:500 -duration 30s
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/metrics"
	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/tenant"
	"dace/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		cmdTrain(os.Args[2:])
	case "eval":
		cmdEval(os.Args[2:])
	case "finetune":
		cmdFinetune(os.Args[2:])
	case "predict":
		cmdPredict(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "encode":
		cmdEncode(os.Args[2:])
	case "tenants":
		cmdTenants(os.Args[2:])
	case "loadtest":
		cmdLoadtest(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dace {train|eval|finetune|predict|explain|encode|tenants|loadtest} [flags]")
	os.Exit(2)
}

// cmdTenants reports multi-tenant serving state: from a running daced's
// GET /tenants (live counters included) or straight from a tenants
// artifact directory when no daemon is up.
func cmdTenants(args []string) {
	fs := flag.NewFlagSet("tenants", flag.ExitOnError)
	addr := fs.String("addr", "", "running daced base URL (e.g. http://localhost:8080)")
	dir := fs.String("dir", "", "tenants artifact directory (offline mode)")
	fs.Parse(args)

	switch {
	case *addr != "":
		tenantsFromDaemon(*addr)
	case *dir != "":
		tenantsFromDir(*dir)
	default:
		fatal(errors.New("tenants: -addr or -dir required"))
	}
}

// tenantsFromDaemon renders GET /tenants from a live server.
func tenantsFromDaemon(addr string) {
	url := strings.TrimSuffix(addr, "/")
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := http.Get(url + "/tenants")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fatal(fmt.Errorf("tenants: %s returned %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body))))
	}
	var infos []tenant.Info
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		fatal(err)
	}
	if len(infos) == 0 {
		fmt.Println("no tenants registered")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "TENANT\tVERSION\tGEN\tADAPTED\tBACKLOG\tREQUESTS\tFEEDBACK\tRUNS\tPROMOTIONS")
	for _, ti := range infos {
		fmt.Fprintf(w, "%s\tv%d\t%d\t%v\t%d\t%d\t%d\t%d\t%d\n",
			ti.ID, ti.Version, ti.Gen, ti.Adapted, ti.Backlog, ti.Requests, ti.Feedback, ti.Runs, ti.Promotions)
	}
	w.Flush()
}

// tenantsFromDir renders each tenant subdirectory's artifact manifest.
func tenantsFromDir(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// The registry creates per-tenant dirs lazily on first promotion;
			// a missing root just means nothing has been promoted yet.
			fmt.Printf("no tenant artifacts under %s\n", dir)
			return
		}
		fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "TENANT\tCURRENT\tVERSIONS\tLAST PROMOTED")
	rows := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		man, err := adapt.ReadManifest(filepath.Join(dir, e.Name()))
		if err != nil {
			continue // not a tenant artifact dir (or no promotion yet)
		}
		last := ""
		for _, v := range man.Versions {
			if v.Version == man.Current {
				last = v.Created.Format(time.RFC3339)
			}
		}
		fmt.Fprintf(w, "%s\tv%d\t%d\t%s\n", e.Name(), man.Current, len(man.Versions), last)
		rows++
	}
	if rows == 0 {
		fmt.Printf("no tenant artifacts under %s\n", dir)
		return
	}
	w.Flush()
}

// cmdEncode converts plans between the JSON document format and the compact
// binary wire encoding (Content-Type application/x-dace-plan) the server
// accepts on /predict and /predict/batch.
func cmdEncode(args []string) {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "-", "input path (default stdin)")
	out := fs.String("out", "-", "output path (default stdout)")
	decode := fs.Bool("decode", false, "convert binary back to JSON instead")
	batch := fs.Bool("batch", false, "input is a JSON array / binary batch frame")
	fs.Parse(args)

	data, err := readAll(*in)
	if err != nil {
		fatal(err)
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	var dec plan.Decoder
	switch {
	case *decode && *batch:
		bb, err := plan.NewBinaryBatch(data)
		if err != nil {
			fatal(err)
		}
		io.WriteString(w, "[")
		for i := 0; bb.Len() > 0; i++ {
			f, err := bb.Next(&dec)
			if err != nil {
				fatal(fmt.Errorf("plan[%d]: %w", i, err))
			}
			if i > 0 {
				io.WriteString(w, ",")
			}
			if err := f.Tree().WriteJSON(w); err != nil {
				fatal(err)
			}
		}
		io.WriteString(w, "]\n")
	case *decode:
		f, err := dec.DecodeBinary(data)
		if err != nil {
			fatal(err)
		}
		if err := f.Tree().WriteJSON(w); err != nil {
			fatal(err)
		}
		io.WriteString(w, "\n")
	case *batch:
		var raw []json.RawMessage
		if err := json.Unmarshal(data, &raw); err != nil {
			fatal(err)
		}
		plans := make([]*plan.Plan, len(raw))
		for i, msg := range raw {
			f, err := dec.Decode(msg)
			if err != nil {
				fatal(fmt.Errorf("plan[%d]: %w", i, err))
			}
			plans[i] = f.Tree()
		}
		enc, err := plan.AppendBinaryBatch(nil, plans)
		if err != nil {
			fatal(err)
		}
		if _, err := w.Write(enc); err != nil {
			fatal(err)
		}
	default:
		f, err := dec.Decode(data)
		if err != nil {
			fatal(err)
		}
		enc, err := plan.AppendBinary(nil, f.Tree())
		if err != nil {
			fatal(err)
		}
		if _, err := w.Write(enc); err != nil {
			fatal(err)
		}
	}
}

func readAll(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// cmdExplain generates a workload query against a benchmark database, plans
// and "executes" it, and writes the labeled plan JSON — the input format
// `dace predict` consumes.
func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	db := fs.String("db", "imdb", "benchmark database")
	seed := fs.Int64("seed", 1, "query generator seed")
	machineName := fs.String("machine", "M1", "machine profile")
	out := fs.String("out", "-", "output path (default stdout)")
	fs.Parse(args)

	catalog := schema.BenchmarkDB(*db)
	m := executor.M1()
	if *machineName == "M2" {
		m = executor.M2()
	}
	samples, err := dataset.Collect(catalog,
		[]*workload.Query{workload.NewGenerator(catalog, *seed).One("explain")}, m)
	if err != nil {
		fatal(err)
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintf(os.Stderr, "-- %s\n", samples[0].Query.SQL())
	if err := samples[0].Plan.WriteJSON(w); err != nil {
		fatal(err)
	}
}

func collect(dbNames string, queries int, machineName string) []dataset.Sample {
	m := executor.M1()
	if machineName == "M2" {
		m = executor.M2()
	}
	var out []dataset.Sample
	for _, name := range strings.Split(dbNames, ",") {
		db := schema.BenchmarkDB(strings.TrimSpace(name))
		samples, err := dataset.ComplexWorkload(db, queries, m)
		if err != nil {
			fatal(err)
		}
		out = append(out, samples...)
	}
	return out
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dbs := fs.String("dbs", "airline,walmart,financial,credit,employee,seznam", "training databases")
	queries := fs.Int("queries", 200, "queries per database")
	epochs := fs.Int("epochs", 16, "training epochs")
	machineName := fs.String("machine", "M1", "machine profile")
	model := fs.String("model", "dace.json", "output model path")
	workers := fs.Int("workers", 0, "training worker goroutines (0 = all CPUs)")
	fs.Parse(args)

	samples := collect(*dbs, *queries, *machineName)
	cfg := core.DefaultConfig()
	cfg.Epochs = *epochs
	cfg.Workers = *workers
	m := core.Train(dataset.Plans(samples), cfg)
	f, err := os.Create(*model)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		fatal(err)
	}
	fmt.Printf("trained DACE on %d plans from %s; saved to %s\n", len(samples), *dbs, *model)
}

func loadModel(path string) *core.Model {
	m := core.NewModel(core.DefaultConfig())
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := m.Load(f); err != nil {
		fatal(err)
	}
	return m
}

func cmdEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	model := fs.String("model", "dace.json", "model path")
	db := fs.String("db", "imdb", "evaluation database (unseen is the point)")
	queries := fs.Int("queries", 200, "evaluation queries")
	machineName := fs.String("machine", "M1", "machine profile")
	workers := fs.Int("workers", 0, "inference worker goroutines (0 = all CPUs)")
	fs.Parse(args)

	m := loadModel(*model)
	samples := collect(*db, *queries, *machineName)
	preds := m.PredictBatch(dataset.Plans(samples), *workers)
	qs := make([]float64, len(samples))
	for i, s := range samples {
		qs[i] = metrics.QError(preds[i], s.Plan.Root.ActualMS)
	}
	fmt.Println(metrics.Header(*db))
	fmt.Println(metrics.Summarize(qs).Row("DACE"))
}

func cmdFinetune(args []string) {
	fs := flag.NewFlagSet("finetune", flag.ExitOnError)
	model := fs.String("model", "dace.json", "pre-trained model path")
	dbs := fs.String("dbs", "airline,walmart,financial", "fine-tuning databases")
	queries := fs.Int("queries", 200, "queries per database")
	machineName := fs.String("machine", "M2", "machine profile to adapt to")
	epochs := fs.Int("epochs", 16, "fine-tuning epochs")
	out := fs.String("out", "dace_lora.json", "output model path")
	workers := fs.Int("workers", 0, "training worker goroutines (0 = all CPUs)")
	fs.Parse(args)

	m := loadModel(*model)
	m.Cfg.Workers = *workers
	samples := collect(*dbs, *queries, *machineName)
	m.FineTuneLoRA(dataset.Plans(samples), 2e-3, *epochs)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		fatal(err)
	}
	fmt.Printf("fine-tuned on %d %s plans (%d trainable params of %d); saved to %s\n",
		len(samples), *machineName, m.TrainableParams(), totalParams(m), *out)
}

func totalParams(m *core.Model) int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Value.Data)
	}
	return n
}

func cmdPredict(args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	model := fs.String("model", "dace.json", "model path")
	planPath := fs.String("plan", "", "plan JSON (as written by plan.WriteJSON); - for stdin")
	fs.Parse(args)

	m := loadModel(*model)
	in := os.Stdin
	if *planPath != "" && *planPath != "-" {
		f, err := os.Open(*planPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	p, err := plan.ReadJSON(in)
	if err != nil {
		fatal(err)
	}
	preds := m.PredictSubPlans(p)
	nodes := p.DFS()
	heights := p.Heights()
	fmt.Printf("predicted root latency: %.3f ms\n", preds[0])
	for i, n := range nodes {
		fmt.Printf("%s%-20s est_cost=%.1f est_rows=%.0f → %.3f ms\n",
			strings.Repeat("  ", heights[i]), n.Type, n.EstCost, n.EstRows, preds[i])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dace:", err)
	os.Exit(1)
}
