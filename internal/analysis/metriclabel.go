package analysis

import (
	"go/ast"
	"go/types"
)

// metricsPkgPath is the labeled metrics package whose registration
// surface the metriclabel rule guards.
const metricsPkgPath = "voiceguard/internal/metrics"

// metricRegistrars are the metrics functions and Registry methods
// whose (single) argument names a metric family.
var metricRegistrars = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterVec": true, "HistogramVec": true,
	"NewCounter": true, "NewGauge": true, "NewHistogram": true,
	"NewCounterVec": true, "NewHistogramVec": true,
}

// constLabelFields are the Labels fields whose values must come from
// constant expressions: Stage and Verdict are closed enumerations, so
// a dynamic value is either a typo the exposition schema silently
// absorbs or an unbounded cardinality source. Home, Speaker, and
// Profile stay dynamic by design — they carry the tenant, device, and
// fault-profile dimensions.
var constLabelFields = map[string]bool{"Stage": true, "Verdict": true}

// MetricLabel pins the exposition schema down statically: every
// metric family name passed to a registration call must be a
// package-level constant (greppable, reviewable, collision-checked at
// one site), and the closed label dimensions (Stage, Verdict) of a
// metrics.Labels literal must be constant expressions.
var MetricLabel = &Analyzer{
	Name: "metriclabel",
	Doc:  "metric names must be package-level constants; Labels.Stage and Labels.Verdict must be constant expressions",
	Run:  runMetricLabel,
}

func runMetricLabel(pass *Pass) {
	// The metrics package itself forwards caller-supplied names
	// (NewCounter -> Default.Counter) and builds the overflow child's
	// label set dynamically; the rule binds its callers.
	if pass.PkgPath == metricsPkgPath {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkMetricName(pass, n)
			case *ast.CompositeLit:
				checkLabelsLiteral(pass, n)
			}
			return true
		})
	}
}

// checkMetricName flags registration calls whose name argument is not
// a package-level constant.
func checkMetricName(pass *Pass, call *ast.CallExpr) {
	fn := callee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != metricsPkgPath ||
		!metricRegistrars[fn.Name()] || len(call.Args) != 1 {
		return
	}
	if isPackageConst(pass.Info, call.Args[0]) {
		return
	}
	pass.Reportf(call.Args[0].Pos(),
		"metric name passed to metrics.%s must be a package-level constant; name the family in a const block so the exposition schema stays greppable and collision-checked",
		fn.Name())
}

// isPackageConst reports whether e is an identifier (or selector)
// naming a constant declared at package scope.
func isPackageConst(info *types.Info, e ast.Expr) bool {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	default:
		return false
	}
	c, ok := obj.(*types.Const)
	return ok && c.Pkg() != nil && c.Parent() == c.Pkg().Scope()
}

// checkLabelsLiteral flags metrics.Labels composite literals whose
// Stage or Verdict value is not a constant expression.
func checkLabelsLiteral(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok || !isMetricsLabels(tv.Type) {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		field := ""
		value := elt
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			id, isIdent := kv.Key.(*ast.Ident)
			if !isIdent {
				continue
			}
			field, value = id.Name, kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i).Name()
		}
		if !constLabelFields[field] {
			continue
		}
		if vtv, ok := pass.Info.Types[value]; ok && vtv.Value != nil {
			continue
		}
		pass.Reportf(value.Pos(),
			"Labels.%s must be a constant expression: stage and verdict are closed enumerations, and a dynamic value is an unbounded cardinality source (Home/Speaker/Profile carry the dynamic dimensions)",
			field)
	}
}

// isMetricsLabels reports whether t is metrics.Labels.
func isMetricsLabels(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == metricsPkgPath && obj.Name() == "Labels"
}
