package sema

import (
	"golclint/internal/annot"
	"golclint/internal/ctoken"
	"golclint/internal/ctypes"
)

// builtinPos marks standard-library declarations in messages.
var builtinPos = ctoken.Pos{File: ctoken.FileOf("<standard library>"), Line: 1, Col: 1}

// sizeT is the size_t type used by the builtin declarations.
var sizeT = ctypes.NamedOf("size_t", ctypes.ULongType, 0)

// registerStdlib installs the annotated standard library. The key
// declarations follow the paper verbatim (§4.3):
//
//	/*@null@*/ /*@out@*/ /*@only@*/ void *malloc(size_t size);
//	void free(/*@null@*/ /*@out@*/ /*@only@*/ void *ptr);
//	char *strcpy(/*@out@*/ /*@returned@*/ /*@unique@*/ char *s1, char *s2);
func registerStdlib(p *Program) {
	voidp := ctypes.PointerTo(ctypes.VoidType)
	charp := ctypes.PointerTo(ctypes.CharType)
	constCharp := charp // const is ignored by the checker

	def := func(sig *FuncSig) {
		sig.Builtin = true
		sig.Pos = builtinPos
		p.Funcs[sig.Name] = sig
	}

	def(&FuncSig{
		Name: "malloc", Result: voidp,
		ResultAnnots: annot.Make(annot.Null, annot.Out, annot.Only),
		Params:       []ctypes.Param{{Name: "size", Type: sizeT}},
	})
	def(&FuncSig{
		Name: "calloc", Result: voidp,
		ResultAnnots: annot.Make(annot.Null, annot.Out, annot.Only),
		Params: []ctypes.Param{
			{Name: "nmemb", Type: sizeT},
			{Name: "size", Type: sizeT},
		},
	})
	def(&FuncSig{
		Name: "realloc", Result: voidp,
		ResultAnnots: annot.Make(annot.Null, annot.Only),
		Params: []ctypes.Param{
			{Name: "ptr", Type: voidp, Annots: annot.Make(annot.Null, annot.Out, annot.Only)},
			{Name: "size", Type: sizeT},
		},
	})
	def(&FuncSig{
		Name: "free", Result: ctypes.VoidType,
		Params: []ctypes.Param{
			{Name: "ptr", Type: voidp, Annots: annot.Make(annot.Null, annot.Out, annot.Only)},
		},
	})
	def(&FuncSig{
		Name: "strcpy", Result: charp,
		Params: []ctypes.Param{
			{Name: "s1", Type: charp, Annots: annot.Make(annot.Out, annot.Returned, annot.Unique)},
			{Name: "s2", Type: constCharp},
		},
	})
	def(&FuncSig{
		Name: "strncpy", Result: charp,
		Params: []ctypes.Param{
			{Name: "s1", Type: charp, Annots: annot.Make(annot.Out, annot.Returned, annot.Unique)},
			{Name: "s2", Type: constCharp},
			{Name: "n", Type: sizeT},
		},
	})
	def(&FuncSig{
		Name: "strcat", Result: charp,
		Params: []ctypes.Param{
			{Name: "s1", Type: charp, Annots: annot.Make(annot.Returned, annot.Unique)},
			{Name: "s2", Type: constCharp},
		},
	})
	def(&FuncSig{
		Name: "strcmp", Result: ctypes.IntType,
		Params: []ctypes.Param{
			{Name: "s1", Type: constCharp},
			{Name: "s2", Type: constCharp},
		},
	})
	def(&FuncSig{
		Name: "strlen", Result: sizeT,
		Params: []ctypes.Param{{Name: "s", Type: constCharp}},
	})
	def(&FuncSig{
		Name: "strdup", Result: charp,
		ResultAnnots: annot.Make(annot.Null, annot.Only),
		Params:       []ctypes.Param{{Name: "s", Type: constCharp}},
	})
	def(&FuncSig{
		Name: "strchr", Result: charp,
		ResultAnnots: annot.Make(annot.Null, annot.Temp),
		Params: []ctypes.Param{
			{Name: "s", Type: constCharp, Annots: annot.Make(annot.Returned)},
			{Name: "c", Type: ctypes.IntType},
		},
	})
	def(&FuncSig{
		Name: "memcpy", Result: voidp,
		Params: []ctypes.Param{
			{Name: "dst", Type: voidp, Annots: annot.Make(annot.Out, annot.Returned, annot.Unique)},
			{Name: "src", Type: voidp},
			{Name: "n", Type: sizeT},
		},
	})
	def(&FuncSig{
		Name: "memset", Result: voidp,
		Params: []ctypes.Param{
			{Name: "s", Type: voidp, Annots: annot.Make(annot.Out, annot.Returned)},
			{Name: "c", Type: ctypes.IntType},
			{Name: "n", Type: sizeT},
		},
	})
	def(&FuncSig{
		Name: "printf", Result: ctypes.IntType,
		Params:   []ctypes.Param{{Name: "format", Type: constCharp}},
		Variadic: true,
	})
	def(&FuncSig{
		Name: "fprintf", Result: ctypes.IntType,
		Params: []ctypes.Param{
			{Name: "stream", Type: voidp},
			{Name: "format", Type: constCharp},
		},
		Variadic: true,
	})
	def(&FuncSig{
		Name: "sprintf", Result: ctypes.IntType,
		Params: []ctypes.Param{
			{Name: "s", Type: charp, Annots: annot.Make(annot.Out, annot.Unique)},
			{Name: "format", Type: constCharp},
		},
		Variadic: true,
	})
	def(&FuncSig{
		Name: "exit", Result: ctypes.VoidType,
		Params:   []ctypes.Param{{Name: "status", Type: ctypes.IntType}},
		NoReturn: true,
	})
	def(&FuncSig{
		Name: "abort", Result: ctypes.VoidType, NoReturn: true,
	})
	def(&FuncSig{
		Name: "assert", Result: ctypes.VoidType,
		Params: []ctypes.Param{{Name: "cond", Type: ctypes.IntType}},
	})
}

// SizeT returns the builtin size_t type for use by drivers that predefine
// it in the parser's typedef table.
func SizeT() *ctypes.Type { return sizeT }
