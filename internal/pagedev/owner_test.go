package pagedev_test

import (
	"testing"

	"oopp/internal/pagedev"
)

// BenchmarkJacobiPlane times one owner-computes plane sweep at the
// stencil geometry: a 32-plane 128×128 slab held as 16 pages of 32³,
// with both halo planes pulled from the neighbouring page-planes on the
// same device (the co-located path). The device holds three page-planes
// in bank 0 and sweeps the middle one into bank 1. Reports swept cells
// per second; allocs/op must not grow with the slab.
func BenchmarkJacobiPlane(b *testing.B) {
	const (
		n          = 32 // page edge
		P          = 4  // pages per slab axis
		N          = n * P
		perPlane   = P * P
		planes     = 3
		bank       = planes * perPlane
		cellsSwept = n * N * N
	)
	c := startCluster(b, 1, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 0, "jacobi", 2*bank, n, n, n, pagedev.DiskPrivate)
	if err != nil {
		b.Fatalf("device: %v", err)
	}
	page := pagedev.NewArrayPage(n, n, n)
	for idx := 0; idx < bank; idx++ {
		for i := range page.Data {
			page.Data[i] = float64((idx*7919+i*31)%1000) / 1000
		}
		if err := dev.WritePage(bg, page, idx); err != nil {
			b.Fatalf("seed page %d: %v", idx, err)
		}
	}
	planePages := func(q int) []int {
		pages := make([]int, perPlane)
		for i := range pages {
			pages[i] = q*perPlane + i
		}
		return pages
	}
	args := pagedev.JacobiPlaneArgs{
		SrcOff: 0, DstOff: bank,
		QBase: n,
		N1:    planes * n, N2: N, N3: N,
		P2: P, P3: P,
		Pages: planePages(1),
		Lo:    &pagedev.JacobiHalo{Ref: dev.Ref(), Pages: planePages(0)},
		Hi:    &pagedev.JacobiHalo{Ref: dev.Ref(), Pages: planePages(2)},
	}
	sweep := func() {
		if _, err := pagedev.DecodeSum(bg, dev.JacobiPlaneAsync(bg, args)); err != nil {
			b.Fatalf("jacobiPlane: %v", err)
		}
	}
	sweep() // grow the device scratch before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.ReportMetric(float64(cellsSwept)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}
