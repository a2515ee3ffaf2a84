// Package minisql is a small embedded relational database engine supporting
// the SQL subset used by the OSPREY EMEWS task database: CREATE TABLE,
// CREATE INDEX, INSERT, SELECT (WHERE / ORDER BY / LIMIT / COUNT / MIN / MAX),
// UPDATE, DELETE and transactions (BEGIN / COMMIT / ROLLBACK).
//
// It stands in for the resource-local PostgreSQL instance the paper uses: the
// task-queue semantics of OSPREY are plain relational operations, and this
// engine executes the identical SQL access paths against in-memory tables
// with hash indexes and an undo-log transaction model.
package minisql

import (
	"fmt"
	"strconv"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// Value kinds. Integers and floats compare numerically with coercion.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
)

// Value is a dynamically typed SQL value.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Text  string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int64 wraps an int64 as a Value.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Float64 wraps a float64 as a Value.
func Float64(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// Text wraps a string as a Value.
func Text(s string) Value { return Value{Kind: KindText, Text: s} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsInt returns the value coerced to int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.Int
	case KindFloat:
		return int64(v.Float)
	case KindText:
		n, _ := strconv.ParseInt(v.Text, 10, 64)
		return n
	}
	return 0
}

// AsFloat returns the value coerced to float64.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.Int)
	case KindFloat:
		return v.Float
	case KindText:
		f, _ := strconv.ParseFloat(v.Text, 64)
		return f
	}
	return 0
}

// AsText returns the value coerced to a string.
func (v Value) AsText() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindText:
		return v.Text
	}
	return ""
}

// String implements fmt.Stringer for debugging output.
func (v Value) String() string {
	if v.Kind == KindNull {
		return "NULL"
	}
	return v.AsText()
}

// Compare orders two values: -1 if v < o, 0 if equal, 1 if v > o.
// NULL sorts before everything; numeric kinds compare with coercion;
// comparing text with a number compares the number's text form.
func (v Value) Compare(o Value) int {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == KindNull && o.Kind == KindNull:
			return 0
		case v.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.Kind == KindText || o.Kind == KindText {
		a, b := v.AsText(), o.AsText()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Kind == KindInt && o.Kind == KindInt {
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		default:
			return 0
		}
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// key returns a canonical map key for hash indexing. Text keys concatenate
// in one allocation; the other kinds render into a stack buffer first.
func (v Value) key() string {
	if v.Kind == KindText {
		return "t" + v.Text
	}
	var buf [24]byte
	return string(v.appendKey(buf[:0]))
}

// appendKey appends v's canonical hash key to b. Index probes look keys up
// as m[string(v.appendKey(buf))], which the compiler performs without
// allocating the string.
func (v Value) appendKey(b []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, 'n')
	case KindInt:
		return strconv.AppendInt(append(b, 'i'), v.Int, 10)
	case KindFloat:
		// Integral floats hash like ints so 1 and 1.0 collide as SQL expects.
		if v.Float == float64(int64(v.Float)) {
			return strconv.AppendInt(append(b, 'i'), int64(v.Float), 10)
		}
		return strconv.AppendFloat(append(b, 'f'), v.Float, 'b', -1, 64)
	default:
		return append(append(b, 't'), v.Text...)
	}
}

// toValue converts a Go value supplied as a query argument into a Value.
func toValue(arg any) (Value, error) {
	switch a := arg.(type) {
	case nil:
		return Null(), nil
	case int:
		return Int64(int64(a)), nil
	case int32:
		return Int64(int64(a)), nil
	case int64:
		return Int64(a), nil
	case uint:
		return Int64(int64(a)), nil
	case float32:
		return Float64(float64(a)), nil
	case float64:
		return Float64(a), nil
	case bool:
		if a {
			return Int64(1), nil
		}
		return Int64(0), nil
	case string:
		return Text(a), nil
	case []byte:
		return Text(string(a)), nil
	case Value:
		return a, nil
	default:
		return Value{}, fmt.Errorf("minisql: unsupported argument type %T", arg)
	}
}
