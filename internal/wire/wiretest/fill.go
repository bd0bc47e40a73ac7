// Package wiretest supports the field-coverage guards of the hand-written
// codecs: what gob's reflection gave for free.
package wiretest

import (
	"fmt"
	"reflect"
	"time"
)

// Fill sets every field reachable from ptr — recursively through structs,
// arrays, slices and maps — to a distinct non-zero value, so that a
// codec round-trip compared with reflect.DeepEqual fails for any field the
// codec does not carry. A field tagged `wire:"-"`, which no codec carries,
// stays zero. It panics on an unexported field or a kind it cannot fill: a
// type that grows one must teach both its codec and, if need be, this
// filler.
func Fill(ptr interface{}) {
	n := 0
	fill(reflect.ValueOf(ptr).Elem(), &n)
}

func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n%255 + 1))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), n)
		fill(v.Index(1), n)
	case reflect.Array:
		for i := range v.Len() {
			fill(v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, n)
			fill(e, n)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(int64(*n), int64(*n)).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("wire") == "-" {
				continue
			}
			if !v.Field(i).CanSet() {
				panic(fmt.Sprintf("wiretest: unexported field %s.%s", v.Type(), v.Type().Field(i).Name))
			}
			fill(v.Field(i), n)
		}
	default:
		panic(fmt.Sprintf("wiretest: cannot fill %s", v.Type()))
	}
}
