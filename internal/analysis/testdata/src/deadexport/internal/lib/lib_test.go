package lib

func useTestOnly() {
	TestOnly()
	T{}.TestOnlyMethod()
	_ = Config{Dead: 1}.Dead
}

// Helper is declared in a test file, so it is out of scope.
func Helper() {}
