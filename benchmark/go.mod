// The benchmark is a module of its own so that the repository's go.mod,
// `go build ./...` and `go test ./...` are untouched by it. The module path
// sits under ftmp/ so that Go's internal-package rule lets it import
// ftmp/internal/...; the replace points at the checkout it lives in.
module ftmp/benchmark

go 1.22

require ftmp v0.0.0

replace ftmp => ../
