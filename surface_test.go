package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceExempt lists the exported identifiers that no non-test code
// references but that stay, each with its exemption:
//
//	(a) a test of production code uses it as an oracle or fixture;
//	(b) another package calls it through an interface;
//	(c) the correlation code that the lineage-aware final operator will
//	    decide on (ROADMAP item 5);
//	(d) the root bench_test.go benchmarks reach it;
//	(e) dead, and deleted in a later change together with the tests that
//	    exist only for it (ROADMAP item 4 lists them).
//
// Keys are "importpath.Name" for package-level identifiers and
// "importpath.Type.Method" for methods.
var surfaceExempt = map[string]string{
	"repro/internal/cf.GilPelaezPDF": "(a) oracle for cf.Invert in TestGilPelaezMatchesFFTInversion",
	"repro/internal/cf.Of":           "(a) fixture in TestFitGMMToCFBimodal and TestNumericCumulants",

	"repro/internal/core.GroupSum":                         "(a) batch reference in uop's TestQ1GraphMatchesBatchReference",
	"repro/internal/core.HavingGreater":                    "(a) batch reference in uop's TestQ1GraphMatchesBatchReference",
	"repro/internal/core.GroupOf":                          "(a) fixture in core's shard and partial tests (renderGrouped, renderMerged)",
	"repro/internal/core.SelectLess":                       "(a) complement of SelectGreater in TestSelectionLawOfTotalProbability",
	"repro/internal/core.CondChain.JointSample":            "(c)",
	"repro/internal/core.CondChain.SumAssumingIndependent": "(c)",
	"repro/internal/core.CondChain.SumDist":                "(c)",
	"repro/internal/core.FinalSum":                         "(c); (d) BenchmarkFinalSumLineage",
	"repro/internal/core.MeanCorrelatedMA":                 "(d) BenchmarkCorrelatedAggregation",
	"repro/internal/core.Count":                            "(e) TestCountPoissonBinomial",
	"repro/internal/dist.BIC":                              "(a) criterion passed to SelectMixture in TestSelectMixtureAIC",
	"repro/internal/dist.ConvolveNormals":                  "(a) oracle in cf's TestInvertGaussianSum",
	"repro/internal/dist.Interval.Contains":                "(a) fixture in TestConfidenceIntervalAndProbs",
	"repro/internal/dist.SampleN":                          "(a) fixture in TestSamplingMatchesCDF; (d) BenchmarkTupleApproximation",
	"repro/internal/experiments.IdentifyNoiseOrder":        "(e) TestIdentifyNoiseOrder",
	"repro/internal/lineage.ApproxCorrelationGroups":       "(c)",
	"repro/internal/lineage.ApproxSet.Union":               "(c)",
	"repro/internal/lineage.Archive.GetAll":                "(c)",
	"repro/internal/lineage.FromSet":                       "(c)",
	"repro/internal/lineage.NewArchive":                    "(c)",
	"repro/internal/lineage.Set.Contains":                  "(c)",
	"repro/internal/lineage.Set.Equal":                     "(c)",
	"repro/internal/lineage.Set.Intersect":                 "(c)",
	"repro/internal/lineage.Set.Overlaps":                  "(c)",
	"repro/internal/lineage.Set.Union":                     "(c)",
	"repro/internal/mathx.KahanSum":                        "(e) TestKahanSumPrecision",
	"repro/internal/mathx.LogSumExp":                       "(e) TestLogSumExp",
	"repro/internal/mathx.MeanVar":                         "(e) TestMeanVarWelford",
	"repro/internal/mathx.NormalMills":                     "(e) TestNormalMills",
	"repro/internal/mathx.Trapz":                           "(e) TestTrapz",
	"repro/internal/pfilter.ObjectFilter.ESS":              "(a) fixture in TestResamplePreservesMean",
	"repro/internal/radar.Atmosphere.DopplerAt":            "(a) fixture in TestDopplerSignConvention and the averager tests",
	"repro/internal/radar.ChainFor":                        "(c)",
	"repro/internal/radar.NewTransformer":                  "(c) builds the voxel tuples ChainFor reads",
	"repro/internal/radar.Transformer.ProcessScan":         "(c) builds the voxel tuples ChainFor reads",
	"repro/internal/radar.Vortex.CoupletWidthDeg":          "(e) TestCoupletWidth",
	"repro/internal/rng.RNG.Poisson":                       "(e) TestPoissonMean",
	"repro/internal/rng.RNG.Split":                         "(e) TestSplitIndependence",
	"repro/internal/router.Router.Crash":                   "(a) fixture in the router failover and restart tests",
	"repro/internal/server.Attr.MarshalJSON":               "(b) encoding/json",
	"repro/internal/server.Attr.UnmarshalJSON":             "(b) encoding/json",
	"repro/internal/server.EncodeTuplesFrame":              "(a) oracle in TestTupleBatchMatchesTuplesFrame",
	"repro/internal/server.Server.Crash":                   "(a) fixture in TestServerCrashRecoveryByteIdentical",
	"repro/internal/stream.Derive":                         "(a) fixture in TestTupleAccessors; (d) BenchmarkFinalSumLineage",
	"repro/internal/stream.FuncOp":                         "(a) fixture in TestPartitionKeyRouting",
	"repro/internal/stream.Graph.Closed":                   "(a) fixture in TestCloseIsIdempotent",
	"repro/internal/stream.Millisecond":                    "(a) fixture in the daemon tests",
	"repro/internal/stream.NewFilter":                      "(a) fixture in TestDescribeLinearChain and TestSeqMergeRestoresOrder",
	"repro/internal/stream.Tuple.Float":                    "(a) fixture in the stream engine tests",
	"repro/internal/timeseries.MA.Simulate":                "(a) fixture in TestMASimulatedACFMatchesTheory; (d) BenchmarkCorrelatedAggregation",
	"repro/internal/timeseries.MeanCLTAuto":                "(d) BenchmarkCorrelatedAggregation",
	"repro/internal/timeseries.WhiteNoise":                 "(a) fixture in TestACFWhiteNoise",
	"repro/internal/timeseries.ARMA":                       "(e) TestARMASimulateStationary",
	"repro/internal/timeseries.ARMA.Simulate":              "(e) TestARMASimulateStationary",
	"repro/internal/timeseries.FitMAAuto":                  "(e) TestFitMAAutoWhiteNoise",
	"repro/internal/timeseries.LjungBox":                   "(e) TestLjungBox",
	"repro/internal/timeseries.ModelMeanDist":              "(e) TestModelMeanDistExactSmallN",
	"repro/internal/timeseries.SumCLT":                     "(e) TestSumCLTScaling",
}

// TestExportedSurface is the exported-surface gate: every exported
// identifier declared in non-test Go (the root module, bench/, cmd/ and
// examples/) must be referenced by some non-test Go, or carry an exemption
// in surfaceExempt. Package-level identifiers resolve through their import
// path; methods resolve by name against every selector in non-test code,
// which over-counts references but never under-counts them. A function's
// reference to itself does not count.
func TestExportedSurface(t *testing.T) {
	decls, used := scanSurface(t, ".")
	t.Logf("%d exported declarations in non-test Go", len(decls))
	var dead []string
	for _, d := range decls {
		if used[d] {
			if _, ok := surfaceExempt[d]; ok {
				t.Errorf("%s is referenced by non-test code; drop its surfaceExempt entry", d)
			}
			continue
		}
		if _, ok := surfaceExempt[d]; !ok {
			dead = append(dead, d)
		}
	}
	for k := range surfaceExempt {
		if _, ok := slices.BinarySearch(decls, k); !ok {
			t.Errorf("surfaceExempt names %s, which is not declared", k)
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d exported identifiers have no non-test reference; delete them or exempt them:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// srcPkg is one directory's non-test files.
type srcPkg struct {
	path, name string
	files      []*ast.File
}

// scanSurface parses every non-test Go file under root and returns the
// sorted exported declaration keys and the set of keys some non-test code
// references.
func scanSurface(t *testing.T, root string) ([]string, map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*srcPkg{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		ip := "repro"
		if dir != "." {
			ip = path.Join("repro", dir)
		}
		pk := pkgs[ip]
		if pk == nil {
			pk = &srcPkg{path: ip, name: f.Name.Name}
			pkgs[ip] = pk
		}
		pk.files = append(pk.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []string
	used := map[string]bool{}
	methodNames := map[string]bool{} // every selector name in non-test code
	type method struct{ key, name string }
	var methods []method
	for _, pk := range pkgs {
		for _, f := range pk.files {
			imports := map[string]string{} // local name -> import path
			for _, is := range f.Imports {
				ip, _ := strconv.Unquote(is.Path.Value)
				local := path.Base(ip)
				if dp, ok := pkgs[ip]; ok {
					local = dp.name
				}
				if is.Name != nil {
					local = is.Name.Name
				}
				imports[local] = ip
			}
			for _, decl := range f.Decls {
				owner := ""
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						owner = pk.path + "." + d.Name.Name
						if d.Name.IsExported() {
							decls = append(decls, owner)
						}
					} else if d.Name.IsExported() {
						key := pk.path + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
						decls = append(decls, key)
						methods = append(methods, method{key, d.Name.Name})
						owner = key
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls = append(decls, pk.path+"."+s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decls = append(decls, pk.path+"."+n.Name)
								}
							}
						}
					}
				}
				collectRefs(decl, pk.path, owner, imports, used, methodNames)
			}
		}
	}
	for _, m := range methods {
		if methodNames[m.name] {
			used[m.key] = true
		}
	}
	slices.Sort(decls)
	return decls, used
}

// recvName is a method receiver's base type name.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// collectRefs records the references one top-level declaration makes:
// qualified identifiers of imported packages, bare identifiers of its own
// package (except the declaration's own name, owner), and every selector
// name as a possible method reference. A method's receiver type does not
// count as a use of that type.
func collectRefs(decl ast.Decl, pkgPath, owner string, imports map[string]string, used, methodNames map[string]bool) {
	skip := map[*ast.Ident]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		skip[d.Name] = true
		if d.Recv != nil {
			ast.Inspect(d.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					skip[id] = true
				}
				return true
			})
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				skip[s.Name] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					skip[n] = true
				}
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if ip, ok := imports[id.Name]; ok {
					used[ip+"."+x.Sel.Name] = true
					return false
				}
			}
			methodNames[x.Sel.Name] = true
			skip[x.Sel] = true
		case *ast.Ident:
			if !skip[x] && pkgPath+"."+x.Name != owner {
				used[pkgPath+"."+x.Name] = true
			}
		}
		return true
	})
}
