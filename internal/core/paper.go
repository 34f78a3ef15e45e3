package core

import (
	"fmt"

	"repro/internal/types"
)

// PaperSchema is the running example of the paper's Figure 4: Account
// with a health-care extension (tenant 17) and an automotive extension
// (tenant 42). The command-line tools serve it.
func PaperSchema() *Schema {
	return &Schema{
		Tables: []*Table{{
			Name: "Account",
			Key:  "Aid",
			Columns: []Column{
				{Name: "Aid", Type: types.IntType, NotNull: true, Indexed: true},
				{Name: "Name", Type: types.VarcharType(50)},
			},
		}},
		Extensions: []*Extension{
			{Name: "HealthcareAccount", Base: "Account", Columns: []Column{
				{Name: "Hospital", Type: types.VarcharType(50)},
				{Name: "Beds", Type: types.IntType},
			}},
			{Name: "AutomotiveAccount", Base: "Account", Columns: []Column{
				{Name: "Dealers", Type: types.IntType},
			}},
		},
	}
}

// LayoutByName builds a Figure 4 layout over PaperSchema (or a schema
// with its extension names) the way the command-line tools configure
// it: Chunk Folding keeps the health-care extension conventional and
// folds the rest.
func LayoutByName(name string, schema *Schema) (Layout, error) {
	switch name {
	case "private":
		return NewPrivateLayout(schema)
	case "extension":
		return NewExtensionLayout(schema)
	case "universal":
		return NewUniversalLayout(schema, 16)
	case "pivot":
		return NewPivotLayout(schema)
	case "chunk":
		return NewChunkLayout(schema, ChunkOptions{})
	case "chunk-flat":
		return NewChunkLayout(schema, ChunkOptions{Flattened: true})
	case "vertical":
		return NewVerticalLayout(schema, nil)
	case "chunkfold":
		return NewChunkFoldingLayout(schema, FoldingOptions{
			ConventionalExtensions: []string{"HealthcareAccount"},
		})
	}
	return nil, fmt.Errorf("unknown layout %q (private, extension, universal, pivot, chunk, chunk-flat, vertical, chunkfold)", name)
}
