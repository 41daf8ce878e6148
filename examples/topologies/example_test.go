package main

// Every run is seeded, so `go test` checks the printed table.
func Example() {
	main()
	// Output:
	// REALTOR at λ=7 across overlays (25 nodes each):
	//
	// overlay    links  diameter  admission   units/task  migration   helps
	// mesh-5x5   40     8         0.9013      57.92       0.1350      2271
	// torus-5x5  50     4         0.9022      49.59       0.1341      2148
	// ring-25    25     12        0.9020      88.72       0.1331      2406
	// star-25    24     2         0.9014      30.42       0.1363      2282
	// random-25  44     5         0.9017      46.24       0.1283      2049
	//
	// Effectiveness is overlay-independent; the absolute message units
	// differ because a flood costs one unit per link (paper's cost model).
}
