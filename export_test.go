package goldeneye

// RaceEnabled exposes raceEnabled to the external goldeneye_test package.
const RaceEnabled = raceEnabled
