package main

// The run is seeded, so `go test` checks the printed stats.
func Example() {
	main()
	// Output:
	// protocol:              REALTOR-100
	// offered tasks:         6985
	// admission probability: 0.9177
	// migration rate:        0.1264
	// message units:         375556 (58.6 per admitted task)
	// HELP floods:           2467
	// PLEDGE unicasts:       66823
}
